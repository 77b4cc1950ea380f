// Command hetrtalint runs the repo's custom static analyzers
// (internal/lint: detmap, ctxpoll, boundreg, hotalloc).
//
// It speaks two protocols:
//
//	go vet -vettool=$(pwd)/bin/hetrtalint ./...   # unit mode, driven by cmd/go
//	hetrtalint ./...                              # standalone mode
//
// In unit mode cmd/go invokes the binary once per package with a vet.cfg
// job file (plus -V=full / -flags handshakes). In standalone mode the
// binary shells out to `go list -export -deps` itself and analyzes the
// matched packages. Every analyzer checks one package at a time.
//
// Exit codes follow the vet convention: 0 clean, 1 internal error,
// 2 findings.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

// selfID hashes the running executable to produce the buildID content cmd/go
// caches vet results under. Falling back to a fixed string merely weakens
// caching, never correctness.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			// cmd/go derives the tool's build-cache key from this line. For a
			// "devel" version the last field must be "buildID=<id>"; like
			// x/tools' unitchecker we use a hash of the executable itself, so
			// the vet cache invalidates whenever the analyzers change.
			fmt.Printf("%s version devel buildID=%s\n", filepath.Base(os.Args[0]), selfID())
			return 0
		case a == "-flags":
			// We register no analyzer flags; the whole suite always runs.
			fmt.Println("[]")
			return 0
		}
	}

	var patterns []string
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			// Unit mode: one vet.cfg job per package, written by cmd/go.
			return driver.RunUnit(lint.Suite(), a, os.Stderr)
		}
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "hetrtalint: unknown flag %s\n", a)
			return 1
		}
		patterns = append(patterns, a)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.Run(lint.Suite(), patterns, "", os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetrtalint: %v\n", err)
		return 1
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
