package main

import (
	"bytes"
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// buildDaemon compiles cmd/dagrtad from the repository at root into out,
// without -race, and returns its build record. A binary that carries the
// race detector is refused: it would measure the detector.
func buildDaemon(ctx context.Context, root, out string) (daemonBuild, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/dagrtad")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return daemonBuild{}, fmt.Errorf("building dagrtad: %v\n%s", err, msg)
	}
	return readDaemonBuild(out)
}

// daemonBuild is what the benchmark records about the daemon binary.
type daemonBuild struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Race      bool   `json:"race"`
	CGO       string `json:"cgo_enabled"`
	Commit    string `json:"commit"`
}

// readDaemonBuild reads the build settings embedded in a Go binary (what
// `go version -m` prints).
func readDaemonBuild(bin string) (daemonBuild, error) {
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return daemonBuild{}, fmt.Errorf("reading build info of %s: %w", bin, err)
	}
	b := daemonBuild{GoVersion: info.GoVersion, Commit: "unknown"}
	for _, s := range info.Settings {
		switch s.Key {
		case "GOOS":
			b.GOOS = s.Value
		case "GOARCH":
			b.GOARCH = s.Value
		case "-race":
			b.Race = s.Value == "true"
		case "CGO_ENABLED":
			b.CGO = s.Value
		case "vcs.revision":
			b.Commit = s.Value
		}
	}
	if b.Race {
		return b, fmt.Errorf("%s is built with -race; the benchmark measures only non-race daemons", bin)
	}
	return b, nil
}

// daemon is one running dagrtad process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *lockedBuffer
	done   chan struct{} // closed once cmd.Wait returned
	err    error         // cmd.Wait's result, valid after done
}

// daemonProcs is the GOMAXPROCS every daemon runs with: all of the
// machine's CPUs, set explicitly so the result file records it.
var daemonProcs = runtime.NumCPU()

// startDaemon executes bin and returns once it accepts connections and
// /readyz answers 200. The process dies with the benchmark (Pdeathsig) if
// the benchmark itself is killed before stopping it.
func startDaemon(ctx context.Context, client *http.Client, bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	line := newFirstLine()
	cmd.Stdout = line
	d := &daemon{cmd: cmd, stderr: &lockedBuffer{}, done: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dagrtad: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, fmt.Errorf("%w\n%s", err, d.stderr.String())
	}
	var first string
	select {
	case first = <-line.ch:
	case <-d.done:
		return fail(fmt.Errorf("dagrtad exited before listening: %v", d.err))
	case <-time.After(2 * time.Minute):
		return fail(errors.New("dagrtad did not start listening within 2m"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	// "dagrtad listening on 127.0.0.1:PORT (platform ..., signature ...)"
	f := strings.Fields(first)
	if len(f) < 4 || f[1] != "listening" {
		return fail(fmt.Errorf("unexpected dagrtad banner %q", first))
	}
	d.base = "http://" + f[3]
	for {
		status, _, err := get(ctx, client, d.base+"/readyz")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.done:
			return fail(fmt.Errorf("dagrtad exited before ready: %v", d.err))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop shuts the daemon down gracefully (SIGTERM: drain, flush the store)
// and waits for it to exit; a daemon that does not exit within the grace
// period is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("dagrtad did not exit within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("dagrtad exited: %v\n%s", d.err, d.stderr.String())
	}
	return nil
}

// kill ends the daemon immediately and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// statsz is /statsz's wire shape: the service counters plus the HTTP
// layer's own.
type statsz struct {
	service.Stats
	RecoveredPanics     uint64 `json:"recoveredPanics"`
	ResponseWriteErrors uint64 `json:"responseWriteErrors"`
}

// stats fetches the daemon's /statsz counters.
func (d *daemon) stats(ctx context.Context, client *http.Client) (statsz, error) {
	var st statsz
	status, body, err := get(ctx, client, d.base+"/statsz")
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// firstLine is an io.Writer that hands the first complete line written to
// it to ch and discards everything after it.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func newFirstLine() *firstLine { return &firstLine{ch: make(chan string, 1)} }

func (w *firstLine) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.ch <- string(w.buf[:i])
		w.sent, w.buf = true, nil
	}
	return len(p), nil
}

// lockedBuffer collects a child's stderr for error messages; exec's copy
// goroutine writes while the benchmark may read.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 64<<10 {
		return len(p), nil
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// findRoot returns the repository root: the working directory when run as
// `bash bench/run.sh`, its parent when run from inside bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dagrtad", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/dagrtad not found in . or ..: run from the repository root or from bench/")
}
