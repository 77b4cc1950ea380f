package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared, and its speed drifts: a
// fixed single-threaded loop measured on a 2-vCPU VM took from 41 to 75 µs
// per iteration over a few minutes, and the daemon's CPU per request moved
// with it. To compare runs taken minutes apart, the run measures the
// machine's speed alongside the daemon: a probe goroutine runs a fixed
// reference computation (stdlib only, so no change to the repository
// can alter it) in short bursts and times each with its own thread's CPU
// clock, which preemption by the daemon or the generator does not
// advance. Time metrics are reported at reference speed: multiplied by
// probeNominal over the probe's time in the same window.

// probeNominal is the reference computation's thread-CPU time per
// iteration, in ns, on a quiet "Intel(R) Xeon(R) Processor" vCPU; it only
// sets the scale of the reported numbers.
const probeNominal = 40_000.0

// Probe cadence: a burst of probeIters iterations (about 1 ms) every
// probeEvery, under 3% of one CPU.
const (
	probeIters = 25
	probeEvery = 40 * time.Millisecond
)

// probeDoc is the reference computation's input: a graph-shaped JSON
// document of 40 nodes.
var probeDoc = func() []byte {
	type node struct {
		WCET int64  `json:"wcet"`
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	var doc struct {
		Nodes []node   `json:"nodes"`
		Edges [][2]int `json:"edges"`
	}
	for i := range 40 {
		doc.Nodes = append(doc.Nodes, node{int64(i * 7 % 13), "cpu", "n" + strconv.Itoa(i)})
		for j := i + 1; j < 40; j += 4 {
			doc.Edges = append(doc.Edges, [2]int{i, j})
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}()

// prober holds the reference computation's working memory. The
// computation allocates nothing: in a process that allocates as fast as
// the load generator does, an allocating probe would be charged for
// garbage-collection assists, and time the collector instead of the
// machine.
type prober struct {
	keys, work []uint64
	index      map[uint64]int
	sink       byte
}

func newProber() *prober {
	pr := &prober{index: make(map[uint64]int)}
	x := uint64(1)
	for i := range 512 {
		x = x*6364136223846793005 + 1442695040888963407
		pr.keys = append(pr.keys, x>>11)
		pr.index[x>>11] = i
	}
	pr.work = make([]uint64, len(pr.keys))
	return pr
}

// once is one iteration of the reference computation: scan, hash, sort
// and look up, the daemon's staple operations.
func (pr *prober) once() {
	if !json.Valid(probeDoc) {
		panic("probe document is not JSON")
	}
	sum := sha256.Sum256(probeDoc)
	copy(pr.work, pr.keys)
	slices.Sort(pr.work)
	hits := 0
	for _, k := range pr.work[:256] {
		hits += pr.index[k]
	}
	pr.sink ^= sum[hits%len(sum)]
}

// threadCPU returns the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// speedSample is the probe's thread-CPU ns per iteration in the burst
// that ended at at.
type speedSample struct {
	at time.Time
	ns float64
}

// startProbe runs probe bursts from now on; the returned stop function
// ends the probe, waits for it, and returns its samples, the same ones on
// every call.
func startProbe() (stop func() []speedSample) {
	var samples []speedSample
	done, exited := make(chan struct{}), make(chan struct{})
	pr := newProber()
	go func() {
		defer close(exited)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			for range probeIters {
				c0 := threadCPU()
				pr.once()
				samples = append(samples, speedSample{time.Now(), float64(threadCPU() - c0)})
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return sync.OnceValue(func() []speedSample {
		close(done)
		<-exited
		return samples
	})
}

// slowdown is the machine's slowness over [lo, hi): the median time of the
// probe bursts that ended in it over probeNominal. An interval shorter
// than the probe's cadence takes the burst that ended nearest to it.
func slowdown(samples []speedSample, lo, hi time.Time) float64 {
	var xs []float64
	nearest, gap := 0, time.Duration(math.MaxInt64)
	for i, s := range samples {
		if !s.at.Before(lo) && s.at.Before(hi) {
			xs = append(xs, s.ns)
		}
		if d := max(lo.Sub(s.at), s.at.Sub(hi)); d < gap {
			nearest, gap = i, d
		}
	}
	if len(xs) == 0 {
		xs = append(xs, samples[nearest].ns)
	}
	return median(xs) / probeNominal
}
