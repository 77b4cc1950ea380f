package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go targets.
const clockTicks = 100

// procCPU returns the user+system CPU time pid has used, in seconds,
// including that of its exited threads.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicks, nil
}

// parseStatCPU extracts utime+stime (fields 14 and 15, in clock ticks)
// from the contents of /proc/<pid>/stat. The command name (field 2) is
// parenthesized and may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command-name terminator")
	}
	// After ")": field 3 (state) is index 0, so field k is index k-3.
	fields := bytes.Fields(data[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want ≥ 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[14-3]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[15-3]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// procHWM returns the peak resident set size (VmHWM) of pid in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseStatusKB returns the value of a "Key:   123 kB" line of
// /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (int64, error) {
	prefix := []byte(key + ":")
	for line := range bytes.SplitSeq(data, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// machineSteal returns the CPU time, in seconds summed over the VM's
// vCPUs, during which the hypervisor ran something else although a vCPU
// had work: the steal column of /proc/stat's "cpu" line.
func machineSteal() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseSteal(data)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicks, nil
}

// parseSteal extracts the steal ticks (the 8th number) of the aggregate
// "cpu" line of /proc/stat.
func parseSteal(data []byte) (uint64, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("proc stat: first line %q is not an aggregate cpu line with a steal column", line)
	}
	return strconv.ParseUint(string(f[8]), 10, 64)
}

// cpuSample is a process's CPU time and the machine's steal time, both
// in seconds, at a time since the phase start.
type cpuSample struct {
	at         time.Duration
	cpu, steal float64
}

// sampleCPU reads pid's CPU time and the machine's steal time every
// interval from now on; the returned stop function takes a last sample and
// returns them all.
func sampleCPU(pid int, start time.Time, every time.Duration) (stop func() ([]cpuSample, error)) {
	var samples []cpuSample
	var err error
	read := func() bool {
		var s cpuSample
		if s.cpu, err = procCPU(pid); err != nil {
			return false
		}
		if s.steal, err = machineSteal(); err != nil {
			return false
		}
		s.at = time.Since(start)
		samples = append(samples, s)
		return true
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for read() {
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() ([]cpuSample, error) {
		close(done)
		<-exited
		if err == nil {
			read()
		}
		return samples, err
	}
}

// sampledAt interpolates one of the sampled quantities at t.
func sampledAt(samples []cpuSample, t time.Duration, of func(cpuSample) float64) float64 {
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if t <= b.at {
			if b.at == a.at || t <= a.at {
				return of(a)
			}
			return of(a) + (of(b)-of(a))*float64(t-a.at)/float64(b.at-a.at)
		}
	}
	return of(samples[len(samples)-1])
}

func daemonCPU(s cpuSample) float64    { return s.cpu }
func machineStole(s cpuSample) float64 { return s.steal }
