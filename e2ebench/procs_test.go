package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, utime 250 and stime 50
	// ticks: 3 s at USER_HZ 100.
	line := "4242 (metaai (serve) x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 250 50 0 0 20 0 9 0 777 1700000 3000 18446744073709551615\n"
	got, err := parseProcStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Errorf("cpu = %v, want 3s", got)
	}
	for _, bad := range []string{"4242 no-parens S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 ab 50 0"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseProcStatCPUOfThisProcess(t *testing.T) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if _, err := parseProcStatCPU(b); err != nil {
		t.Fatal(err)
	}
}

func TestFreePortsAreDistinct(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		ports, err := freePorts(network, 4)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, p := range ports {
			if p <= 0 || seen[p] {
				t.Errorf("%s ports %v: want four distinct ports", network, ports)
			}
			seen[p] = true
		}
	}
}
