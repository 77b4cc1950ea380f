package resilience

import "testing"

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 3, ProbeEvery: 4})
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker still closed after reaching threshold")
	}
	if !b.Open() {
		t.Fatal("Open() = false on an open breaker")
	}
	if st := b.Stats(); st.State != "open" || st.Opens != 1 {
		t.Fatalf("stats = %+v, want open/1 open", st)
	}
}

func TestBreakerProbesDeterministically(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, ProbeEvery: 4})
	b.Failure()
	// While open: Allow calls 1..3 rejected, 4th is the probe, on every run.
	var pattern []bool
	for i := 0; i < 8; i++ {
		pattern = append(pattern, b.Allow())
	}
	want := []bool{false, false, false, true, false, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("Allow pattern = %v, want %v", pattern, want)
		}
	}
	if st := b.Stats(); st.Probes != 2 || st.Rejected != 6 {
		t.Fatalf("stats = %+v, want 2 probes / 6 rejected", st)
	}
}

func TestBreakerClosesOnProbeSuccess(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, ProbeEvery: 2})
	b.Failure()
	if b.Allow() {
		t.Fatal("first Allow while open should reject")
	}
	if !b.Allow() {
		t.Fatal("second Allow should be the probe")
	}
	b.Success() // the probe came back healthy
	if b.Open() {
		t.Fatal("breaker still open after probe success")
	}
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected")
		}
	}
}

func TestBreakerFailingProbeReArms(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, ProbeEvery: 3})
	b.Failure()
	b.Allow()
	b.Allow()
	if !b.Allow() {
		t.Fatal("third Allow should be the probe")
	}
	b.Failure() // probe failed: interval restarts
	if b.Allow() || b.Allow() {
		t.Fatal("rejections must restart after a failed probe")
	}
	if !b.Allow() {
		t.Fatal("probe cadence lost after failed probe")
	}
}

func TestBreakerNilAlwaysAllows(t *testing.T) {
	var b *Breaker
	b.Failure()
	b.Success()
	if !b.Allow() || b.Open() {
		t.Fatal("nil breaker must always allow")
	}
	if st := b.Stats(); st.State != "closed" {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestNegCacheSkipAndProbe(t *testing.T) {
	c := NewNegCache(NegCacheOptions{Capacity: 8, ProbeEvery: 3})
	if c.ShouldSkip(key("a")) {
		t.Fatal("unknown key skipped")
	}
	c.Add(key("a"))
	// Hits 1,2 skip; hit 3 is the probe; 4,5 skip; 6 probes again.
	want := []bool{true, true, false, true, true, false}
	for i, w := range want {
		if got := c.ShouldSkip(key("a")); got != w {
			t.Fatalf("hit %d: ShouldSkip = %v, want %v", i+1, got, w)
		}
	}
	if st := c.Stats(); st.Probes != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 probes / 1 entry", st)
	}
}

func TestNegCacheRemoveUpgrades(t *testing.T) {
	c := NewNegCache(NegCacheOptions{Capacity: 8, ProbeEvery: -1})
	c.Add(key("a"))
	if !c.ShouldSkip(key("a")) {
		t.Fatal("hard instance not skipped")
	}
	if !c.Remove(key("a")) {
		t.Fatal("Remove of present key reported absent")
	}
	if c.ShouldSkip(key("a")) {
		t.Fatal("removed key still skipped")
	}
	if c.Remove(key("a")) {
		t.Fatal("Remove of absent key reported present")
	}
	// ProbeEvery < 0 disables probing: a hard key skips forever.
	c.Add(key("b"))
	for i := 0; i < 200; i++ {
		if !c.ShouldSkip(key("b")) {
			t.Fatalf("probe fired at hit %d with probing disabled", i+1)
		}
	}
}

func TestNegCacheEvictsLRU(t *testing.T) {
	c := NewNegCache(NegCacheOptions{Capacity: 2, ProbeEvery: -1})
	c.Add(key("a"))
	c.Add(key("b"))
	c.ShouldSkip(key("a")) // refresh a; b is now least recent
	c.Add(key("c"))        // evicts b
	if c.ShouldSkip(key("b")) {
		t.Fatal("evicted key still present")
	}
	if !c.ShouldSkip(key("a")) || !c.ShouldSkip(key("c")) {
		t.Fatal("resident keys lost")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
}

func TestNegCacheNil(t *testing.T) {
	var c *NegCache
	c.Add(key("a"))
	if c.ShouldSkip(key("a")) || c.Remove(key("a")) || c.Len() != 0 {
		t.Fatal("nil NegCache must remember nothing")
	}
}

// key is a fingerprint whose first bytes spell s.
func key(s string) (fp [32]byte) {
	copy(fp[:], s)
	return fp
}
