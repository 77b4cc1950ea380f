package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/keyhash"
)

func openTemp(t *testing.T, gen string) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.log")
	s, err := Open(Options{Path: path, Generation: gen})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, path
}

func reopen(t *testing.T, path, gen string) *Store {
	t.Helper()
	s, err := Open(Options{Path: path, Generation: gen})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s, path := openTemp(t, "gen-a")
	s.Append(1, "alpha", []byte("one"))
	s.Append(2, "beta", []byte("two"))
	s.Append(1, "alpha", []byte("one-v2")) // shadows the first record
	s.Flush()

	kind, val, ok := s.Get("alpha")
	if !ok || kind != 1 || string(val) != "one-v2" {
		t.Fatalf("Get(alpha) = %d %q %v, want 1 %q true", kind, val, ok, "one-v2")
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported ok")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh Open over the same file rebuilds the index by scanning.
	s2 := reopen(t, path, "gen-a")
	defer s2.Close()
	st := s2.Stats()
	if st.RecordsLoaded != 3 || st.TailTruncations != 0 || st.Invalidations != 0 {
		t.Fatalf("reopen stats = %+v, want 3 records, no truncations/invalidations", st)
	}
	kind, val, ok = s2.Get("alpha")
	if !ok || kind != 1 || string(val) != "one-v2" {
		t.Fatalf("reopened Get(alpha) = %d %q %v", kind, val, ok)
	}
	if _, val, ok := s2.Get("beta"); !ok || string(val) != "two" {
		t.Fatalf("reopened Get(beta) = %q %v", val, ok)
	}
}

// TestReopenReusedLoadBuffer: the boot scan reads every frame into one
// buffer, so a log whose records shrink and then grow again must reopen
// with every key and value intact.
func TestReopenReusedLoadBuffer(t *testing.T) {
	sizes := []int{300, 100, 10, 1, 0, 50, 500, 4000, 7, 9000}
	record := func(i int) (key string, val []byte) {
		n := sizes[i]
		return fmt.Sprintf("%0*d", n%37+1, i), bytes.Repeat([]byte{byte('a' + i)}, n) // keys vary in length too
	}
	s, path := openTemp(t, "g")
	for i := range sizes {
		key, val := record(i)
		s.Append(byte(i), key, val)
	}
	s.Flush()
	s.Close()

	s2 := reopen(t, path, "g")
	defer s2.Close()
	if st := s2.Stats(); st.RecordsLoaded != uint64(len(sizes)) || st.TailTruncations != 0 {
		t.Fatalf("reopen stats = %+v, want %d records, no truncation", st, len(sizes))
	}
	for i := range sizes {
		key, val := record(i)
		kind, got, ok := s2.Get(key)
		if !ok || kind != byte(i) || !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) = kind %d, %d bytes, %v; want kind %d, %d bytes", key, kind, len(got), ok, i, len(val))
		}
	}
}

// TestWalkNewestFirst pins WalkNewest's contract: live records come
// newest first (a rewrite moves its key to the front), a record rejected
// by want is never read from disk, want sees the key's hash and the
// index's kind, and fn returning false stops the walk.
func TestWalkNewestFirst(t *testing.T) {
	s, _ := openTemp(t, "g")
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Append(1, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	s.Append(2, "k1", []byte{99}) // rewrite moves k1 to the tail
	s.Flush()

	walk := func(want func(uint64, byte) bool, stopAfter int) (order []string, asked []uint64, reads uint64) {
		before := s.reads.Load()
		s.WalkNewest(func(hash uint64, kind byte) bool {
			asked = append(asked, hash)
			return want(hash, kind)
		}, func(rec Record) bool {
			order = append(order, rec.Key)
			return len(order) < stopAfter
		})
		return order, asked, s.reads.Load() - before
	}
	all := func(uint64, byte) bool { return true }

	order, asked, reads := walk(all, 10)
	if want := []string{"k1", "k4", "k3", "k2", "k0"}; !slices.Equal(order, want) {
		t.Fatalf("walk order %v, want %v", order, want)
	}
	if reads != 5 {
		t.Fatalf("full walk read %d records, want 5", reads)
	}
	for i, key := range order {
		if asked[i] != keyhash.Of(key) {
			t.Fatalf("want saw hash %#x for %s, want keyhash.Of = %#x", asked[i], key, keyhash.Of(key))
		}
	}

	// want sees the index's kind: the rewrite carries kind 2.
	k3 := keyhash.Of("k3")
	order, asked, reads = walk(func(hash uint64, kind byte) bool { return kind == 1 && hash != k3 }, 10)
	if want := []string{"k4", "k2", "k0"}; !slices.Equal(order, want) {
		t.Fatalf("filtered walk %v, want %v", order, want)
	}
	if len(asked) != 5 || reads != 3 {
		t.Fatalf("filtered walk asked %d records and read %d, want all 5 asked and 3 read", len(asked), reads)
	}

	order, asked, reads = walk(all, 2)
	if want := []string{"k1", "k4"}; !slices.Equal(order, want) {
		t.Fatalf("stopped walk %v, want %v", order, want)
	}
	if len(asked) != 2 || reads != 2 {
		t.Fatalf("stopped walk asked %d records and read %d, want 2 each", len(asked), reads)
	}
}

// TestHashCollisionShadows forces every key into one index slot: the
// newer record shadows the older, whose Get misses rather than returning
// the newer key's bytes, and a walk yields only the newer record.
func TestHashCollisionShadows(t *testing.T) {
	s, _ := openTemp(t, "g")
	defer s.Close()
	s.slotMask = 0
	s.Append(1, "older", []byte("older-bytes"))
	s.Append(2, "newer", []byte("newer-bytes"))
	s.Flush()

	if kind, val, ok := s.Get("older"); ok {
		t.Fatalf("Get(older) = %d %q, want a miss", kind, val)
	}
	if kind, val, ok := s.Get("newer"); !ok || kind != 2 || string(val) != "newer-bytes" {
		t.Fatalf("Get(newer) = %d %q %v", kind, val, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 slot", s.Len())
	}
	var walked []string
	s.WalkNewest(func(hash uint64, _ byte) bool {
		if hash != 0 {
			t.Errorf("want saw hash %#x, want the forced slot 0", hash)
		}
		return true
	}, func(rec Record) bool {
		walked = append(walked, rec.Key)
		return true
	})
	if !slices.Equal(walked, []string{"newer"}) {
		t.Fatalf("walk yielded %v, want only [newer]", walked)
	}
}

func TestTornTailTruncated(t *testing.T) {
	s, path := openTemp(t, "gen-a")
	s.Append(1, "good", []byte("kept"))
	s.Append(1, "doomed", []byte("tail"))
	s.Flush()
	s.Close()

	// Simulate a crash mid-write: chop bytes off the final record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, path, "gen-a")
	st := s2.Stats()
	if st.TailTruncations != 1 {
		t.Fatalf("TailTruncations = %d, want 1", st.TailTruncations)
	}
	if st.RecordsLoaded != 1 {
		t.Fatalf("RecordsLoaded = %d, want 1", st.RecordsLoaded)
	}
	if _, val, ok := s2.Get("good"); !ok || string(val) != "kept" {
		t.Fatalf("Get(good) = %q %v after truncation", val, ok)
	}
	if _, _, ok := s2.Get("doomed"); ok {
		t.Fatal("torn record still served")
	}
	// The log must be appendable again after truncation.
	s2.Append(1, "after", []byte("crash"))
	s2.Flush()
	s2.Close()

	s3 := reopen(t, path, "gen-a")
	defer s3.Close()
	if st := s3.Stats(); st.RecordsLoaded != 2 || st.TailTruncations != 0 {
		t.Fatalf("post-recovery reopen stats = %+v", st)
	}
	if _, val, ok := s3.Get("after"); !ok || string(val) != "crash" {
		t.Fatalf("Get(after) = %q %v", val, ok)
	}
}

func TestCorruptedRecordCRC(t *testing.T) {
	s, path := openTemp(t, "g")
	s.Append(1, "aa", []byte("payload-one"))
	s.Append(1, "bb", []byte("payload-two"))
	s.Flush()
	s.Close()

	// Flip a byte inside the *first* record's payload: the scan treats
	// the first bad frame as the start of the torn tail, so both
	// records are dropped — never served corrupted.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, path, "g")
	defer s2.Close()
	st := s2.Stats()
	if st.TailTruncations != 1 || st.RecordsLoaded != 0 {
		t.Fatalf("stats after corruption = %+v, want 1 truncation, 0 loaded", st)
	}
	if _, _, ok := s2.Get("aa"); ok {
		t.Fatal("corrupted record served")
	}
}

func TestGenerationMismatchInvalidates(t *testing.T) {
	s, path := openTemp(t, "analyzer-v1")
	s.Append(1, "stale", []byte("old-config"))
	s.Flush()
	s.Close()

	s2 := reopen(t, path, "analyzer-v2")
	st := s2.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.RecordsLoaded != 0 || s2.Len() != 0 {
		t.Fatalf("stale records survived generation change: %+v", st)
	}
	// The restarted log is stamped with the new generation and usable.
	s2.Append(1, "fresh", []byte("new-config"))
	s2.Flush()
	s2.Close()

	s3 := reopen(t, path, "analyzer-v2")
	defer s3.Close()
	if st := s3.Stats(); st.Invalidations != 0 || st.RecordsLoaded != 1 {
		t.Fatalf("restamped log stats = %+v", st)
	}
}

func TestConcurrentAppendGet(t *testing.T) {
	s, _ := openTemp(t, "g")
	defer s.Close()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				s.Append(1, key, []byte(key))
				s.Get(key) // may miss (write-behind), must not race
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	st := s.Stats()
	if got := st.Appends + st.Dropped; got != writers*perWriter {
		t.Fatalf("appends+dropped = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		key := fmt.Sprintf("w%d-k%d", w, perWriter-1)
		if _, val, ok := s.Get(key); ok && string(val) != key {
			t.Fatalf("Get(%s) returned %q", key, val)
		}
	}
}

func TestAppendAfterCloseDropped(t *testing.T) {
	s, _ := openTemp(t, "g")
	s.Close()
	s.Append(1, "late", []byte("x"))
	s.Flush() // must not deadlock or panic
	if st := s.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestScanStream(t *testing.T) {
	s, path := openTemp(t, "shared-gen")
	s.Append(1, "a", []byte("va"))
	s.Append(2, "b", []byte("vb"))
	s.Flush()
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var got []Record
	sum, err := ScanStream(bytes.NewReader(data), "shared-gen", func(rec Record) error {
		got = append(got, Record{Kind: rec.Kind, Key: rec.Key, Value: append([]byte(nil), rec.Value...)})
		return nil
	})
	if err != nil {
		t.Fatalf("ScanStream: %v", err)
	}
	if sum.Records != 2 || sum.Truncated {
		t.Fatalf("summary = %+v", sum)
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" || string(got[1].Value) != "vb" {
		t.Fatalf("records = %+v", got)
	}

	// Wrong generation is rejected before any callback.
	calls := 0
	if _, err := ScanStream(bytes.NewReader(data), "other-gen", func(Record) error { calls++; return nil }); err == nil || calls != 0 {
		t.Fatalf("mismatched generation: err=%v calls=%d", err, calls)
	}

	// A torn stream tail ends the scan cleanly.
	sum, err = ScanStream(bytes.NewReader(data[:len(data)-2]), "shared-gen", func(Record) error { return nil })
	if err != nil {
		t.Fatalf("torn ScanStream: %v", err)
	}
	if sum.Records != 1 || !sum.Truncated {
		t.Fatalf("torn summary = %+v", sum)
	}
}

func TestQueuePressureDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	s, err := Open(Options{Path: path, Generation: "g", QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A flush barrier parks the writer until we let it drain; with a
	// depth-1 queue at least one of the following appends must shed.
	for i := 0; i < 64; i++ {
		s.Append(1, fmt.Sprintf("k%d", i), bytes.Repeat([]byte("x"), 1024))
	}
	s.Flush()
	st := s.Stats()
	if st.Appends+st.Dropped != 64 {
		t.Fatalf("appends %d + dropped %d != 64", st.Appends, st.Dropped)
	}
}
