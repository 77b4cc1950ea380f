package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; fields count from
	// the last ')'. utime = 1234, stime = 56.
	stat := "4242 (dag rtad) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 5 0 100 2000000 500\n"
	ticks, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1290 {
		t.Errorf("ticks = %d, want 1290", ticks)
	}
	for _, bad := range []string{"", "4242 dagrtad S 1", "4242 (dagrtad) S 1 2 3", "1 (a) S 1 1 1 0 -1 0 0 0 0 0 x 5 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tdagrtad\nVmPeak:\t  812344 kB\nVmHWM:\t   18848 kB\nVmRSS:\t   17020 kB\nThreads:\t7\n"
	kb, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if kb != 18848 {
		t.Errorf("VmHWM = %d kB, want 18848", kb)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("wrong unit parsed")
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  570437 0 79784 1064644 360 0 18564 13581 0 0\ncpu0 285499 0 39958 532046 182 0 9259 6770 0 0\n"
	if ticks, err := parseSteal([]byte(stat)); err != nil || ticks != 13581 {
		t.Errorf("parseSteal = %d, %v; want 13581", ticks, err)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8 9\n", "cpu  1 2 3 4\n", "cpu  1 2 3 4 5 6 7 x 9\n"} {
		if _, err := parseSteal([]byte(bad)); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	hwm, err := procHWM(os.Getpid())
	if err != nil || hwm <= 0 {
		t.Errorf("procHWM(self) = %v, %v", hwm, err)
	}
	if steal, err := machineSteal(); err != nil || steal < 0 {
		t.Errorf("machineSteal() = %v, %v", steal, err)
	}
}
