// Package store implements the disk-backed second tier of the serving
// cache: an append-only record log with an in-memory index rebuilt by
// scanning on boot.
//
// # Record format
//
// A log file starts with a header:
//
//	magic   [8]byte  "hetrtas1"
//	genLen  uint16   little-endian
//	gen     []byte   generation stamp (analyzer + taskset signatures)
//
// followed by zero or more CRC-framed records:
//
//	length  uint32   little-endian, byte length of payload
//	crc     uint32   little-endian, CRC-32 (IEEE) of payload
//	payload = kind(1 byte) | uvarint(len(key)) | key | value
//
// The frame makes two failure modes detectable without a separate
// manifest: a crash-truncated tail (short frame or CRC mismatch — the
// tail is dropped and counted, never a boot failure), and a
// configuration change (the generation stamp in the header no longer
// matches — the whole log is invalidated and restarted, never served).
//
// Records are append-only; a later record for the same key shadows an
// earlier one in the index. The index holds no keys: it maps each key's
// 64-bit hash (internal/keyhash) to the span of the newest record under
// that hash, and a read checks the key stored in the payload. Two keys
// that share a hash share a slot, so the later one shadows the earlier,
// whose reads then miss: a collision costs a recomputation, never another
// key's bytes. Appends are
// write-behind: Append enqueues and returns immediately, a single writer
// goroutine owns the file offset, and a bounded queue sheds (and counts)
// writes under pressure rather than blocking the serving path.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/keyhash"
)

var magic = [8]byte{'h', 'e', 't', 'r', 't', 'a', 's', '1'}

const (
	// maxPayload bounds a single record frame; anything larger is
	// treated as frame corruption rather than an allocation request.
	maxPayload = 64 << 20
	// maxGeneration bounds the header generation stamp.
	maxGeneration = 4096
)

// errTorn marks a frame that is syntactically broken (short read, CRC
// mismatch, implausible length): the crash-truncated-tail case.
var errTorn = errors.New("store: torn record frame")

// Record is one decoded log entry. Kind is an opaque namespace byte
// owned by the caller (the service layer uses it to distinguish
// report/admit/eval entries).
type Record struct {
	Kind  byte
	Key   string
	Value []byte
}

// Options configures Open.
type Options struct {
	// Path is the log file, created if absent.
	Path string
	// Generation stamps the log header. A mismatch on Open discards
	// the existing log instead of serving records computed under a
	// different configuration.
	Generation string
	// QueueDepth bounds the write-behind queue (default 1024).
	QueueDepth int
}

// span locates one record's payload inside the file: its offset, length
// and CRC, and the record's kind byte, kept in the index so a walk can
// filter records without reading them. The offset and the kind share one
// word, which keeps an index slot at 24 bytes with its hash.
type span struct {
	at  uint64 // offset<<8 | kind
	n   uint32
	crc uint32
}

func newSpan(off int64, n int, crc uint32, kind byte) span {
	return span{at: uint64(off)<<8 | uint64(kind), n: uint32(n), crc: crc}
}

func (sp span) off() int64 { return int64(sp.at >> 8) }
func (sp span) kind() byte { return byte(sp.at) }

// Store is a disk-backed key→record map. Get and WalkNewest read through an
// in-memory index with os.File.ReadAt, which is safe concurrently with
// the writer goroutine appending at the end of the file.
type Store struct {
	path string
	gen  string
	f    *os.File

	mu    sync.RWMutex
	index map[uint64]span // key hash → newest record under that hash
	size  int64           // file size == next append offset
	// slotMask is ANDed onto every key hash. It is all ones except in
	// tests, which clear bits to force distinct keys into one slot.
	slotMask uint64

	sendMu sync.Mutex
	closed bool
	ch     chan writeMsg
	wg     sync.WaitGroup
	wErr   error // first writer error; further appends are dropped

	recordsLoaded   atomic.Uint64
	bytesLoaded     atomic.Uint64
	tailTruncations atomic.Uint64
	invalidations   atomic.Uint64
	appends         atomic.Uint64
	appendErrors    atomic.Uint64
	dropped         atomic.Uint64
	// reads counts payload reads from disk (Get and WalkNewest), so a
	// test can pin that a walk reads only the records it wants.
	reads atomic.Uint64
}

type writeMsg struct {
	rec   Record
	flush chan struct{} // non-nil: flush barrier, rec ignored
}

// Stats is a point-in-time snapshot of store counters. Counters are
// monotonic; occupancy fields are instantaneous.
type Stats struct {
	// RecordsLoaded / BytesLoaded cover the boot scan of the existing
	// log (good records only).
	RecordsLoaded uint64 `json:"recordsLoaded"`
	BytesLoaded   uint64 `json:"bytesLoaded"`
	// TailTruncations counts crash-truncated tails dropped at boot;
	// Invalidations counts whole-log discards from a generation or
	// magic mismatch.
	TailTruncations uint64 `json:"tailTruncations"`
	Invalidations   uint64 `json:"invalidations"`
	// Appends counts records durably written; AppendErrors write
	// failures (the store goes read-only after the first); Dropped
	// appends shed by the bounded write-behind queue or arriving
	// after Close.
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"appendErrors,omitempty"`
	Dropped      uint64 `json:"dropped,omitempty"`
	// SizeBytes is the current log size; LiveKeys the index occupancy
	// (distinct key hashes, latest record each).
	SizeBytes int64 `json:"sizeBytes"`
	LiveKeys  int   `json:"liveKeys"`
}

// Open opens (creating if needed) the log at opts.Path, validates the
// header against opts.Generation, scans surviving records into the
// index, truncates any torn tail, and starts the write-behind writer.
func Open(opts Options) (*Store, error) {
	if opts.Path == "" {
		return nil, errors.New("store: empty path")
	}
	if len(opts.Generation) > maxGeneration {
		return nil, fmt.Errorf("store: generation stamp exceeds %d bytes", maxGeneration)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	f, err := os.OpenFile(opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", opts.Path, err)
	}
	s := &Store{
		path:     opts.Path,
		gen:      opts.Generation,
		f:        f,
		index:    make(map[uint64]span),
		slotMask: ^uint64(0),
		ch:       make(chan writeMsg, depth),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// load validates the header and scans records into the index,
// restarting the log on header mismatch and truncating a torn tail.
func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat: %w", err)
	}
	if fi.Size() == 0 {
		return s.restart()
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	br := bufio.NewReader(s.f)
	gen, hdrLen, err := readHeader(br)
	if err != nil || gen != s.gen {
		// Foreign or stale log: discard rather than serve records
		// computed under a different configuration.
		s.invalidations.Add(1)
		return s.restart()
	}
	off := hdrLen
	var buf []byte // one buffer for every frame: nothing of it outlives the loop
	for {
		payload, crc, err := readFrame(br, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail: drop everything from the first bad frame.
			s.tailTruncations.Add(1)
			break
		}
		kind, key, _, _ := parsePayload(payload) // readFrame checked it parses
		frameLen := int64(8 + len(payload))
		payloadOff := off + 8 // skip length + crc words
		s.index[keyhash.Of(key)&s.slotMask] = newSpan(payloadOff, len(payload), crc, kind)
		off += frameLen
		s.recordsLoaded.Add(1)
		s.bytesLoaded.Add(uint64(frameLen))
	}
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek end: %w", err)
	}
	s.size = off
	return nil
}

// restart truncates the file and writes a fresh header.
func (s *Store) restart() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	hdr := make([]byte, 0, len(magic)+2+len(s.gen))
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(s.gen)))
	hdr = append(hdr, s.gen...)
	if _, err := s.f.Write(hdr); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	s.size = int64(len(hdr))
	s.index = make(map[uint64]span)
	return nil
}

// Generation returns the stamp the log was opened with.
func (s *Store) Generation() string { return s.gen }

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// Get returns the latest record value for key. The payload is re-read
// from disk and CRC-checked, so a store hit can never return silently
// corrupted bytes, and its key is compared with key, so a hash collision
// that let another key take the slot is a miss.
func (s *Store) Get(key string) (kind byte, value []byte, ok bool) {
	s.mu.RLock()
	sp, found := s.index[keyhash.Of(key)&s.slotMask]
	s.mu.RUnlock()
	if !found {
		return 0, nil, false
	}
	kind, k, value, err := s.readAt(sp)
	if err != nil || string(k) != key {
		return 0, nil, false
	}
	return kind, value, true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// WalkNewest visits live records newest first (reverse log order), so a
// warm start can fill a bounded cache with the most recently written
// keys and stop. want sees each record's key hash (keyhash.Of of its key)
// and kind before anything is read: a record it rejects costs no I/O. fn
// receives each wanted record that reads back intact (CRC-checked, as in
// Get); an unreadable record is skipped, as Get would miss it. A record
// shadowed by a later one under the same hash is not visited, as Get
// would miss it too. fn returning false ends the walk.
func (s *Store) WalkNewest(want func(hash uint64, kind byte) bool, fn func(rec Record) bool) {
	type slot struct {
		hash uint64
		sp   span
	}
	s.mu.RLock()
	live := make([]slot, 0, len(s.index))
	for h, sp := range s.index {
		live = append(live, slot{h, sp})
	}
	s.mu.RUnlock()
	sort.Slice(live, func(i, j int) bool { return live[i].sp.at > live[j].sp.at })
	for _, r := range live {
		if !want(r.hash, r.sp.kind()) {
			continue
		}
		kind, key, value, err := s.readAt(r.sp)
		if err != nil {
			continue
		}
		if !fn(Record{Kind: kind, Key: string(key), Value: value}) {
			return
		}
	}
}

// readAt reads and parses the payload at sp, verifying its CRC. key and
// value are subslices of one fresh buffer.
func (s *Store) readAt(sp span) (kind byte, key, value []byte, err error) {
	s.reads.Add(1)
	buf := make([]byte, sp.n)
	if _, err := s.f.ReadAt(buf, sp.off()); err != nil {
		return 0, nil, nil, err
	}
	if crc32.ChecksumIEEE(buf) != sp.crc {
		return 0, nil, nil, errTorn
	}
	return parsePayload(buf)
}

// Append enqueues a record for write-behind persistence and returns
// immediately. Under queue pressure, after Close, or after a writer
// error the record is dropped (and counted) instead of blocking.
func (s *Store) Append(kind byte, key string, value []byte) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.closed || s.wErr != nil {
		s.dropped.Add(1)
		return
	}
	select {
	case s.ch <- writeMsg{rec: Record{Kind: kind, Key: key, Value: value}}:
	default:
		s.dropped.Add(1)
	}
}

// Flush blocks until every append enqueued before the call has been
// written (or dropped by a writer error). Used by tests and shutdown.
func (s *Store) Flush() {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	ack := make(chan struct{})
	s.ch <- writeMsg{flush: ack}
	s.sendMu.Unlock()
	<-ack
}

// Close flushes pending appends, stops the writer, and closes the
// file. Appends arriving after Close are dropped. Safe to call once.
func (s *Store) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.ch)
	s.sendMu.Unlock()
	s.wg.Wait()
	return s.f.Close()
}

// writer is the single goroutine owning the file append offset.
func (s *Store) writer() {
	defer s.wg.Done()
	for msg := range s.ch {
		if msg.flush != nil {
			close(msg.flush)
			continue
		}
		if err := s.write(msg.rec); err != nil {
			s.appendErrors.Add(1)
			s.sendMu.Lock()
			if s.wErr == nil {
				s.wErr = err
			}
			s.sendMu.Unlock()
		}
	}
}

// write encodes and appends one record, then publishes it to the index.
func (s *Store) write(rec Record) error {
	payload := payloadBytes(rec)
	if len(payload) > maxPayload {
		return fmt.Errorf("store: record for %q exceeds %d bytes", rec.Key, maxPayload)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	crc := crc32.ChecksumIEEE(payload)
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	frame = append(frame, payload...)
	s.mu.Lock()
	off := s.size
	s.mu.Unlock()
	if _, err := s.f.WriteAt(frame, off); err != nil {
		// A partial frame at the tail is exactly what the boot scan
		// truncates; leaving it in place is safe.
		return err
	}
	s.mu.Lock()
	s.index[keyhash.Of(rec.Key)&s.slotMask] = newSpan(off+8, len(payload), crc, rec.Kind)
	s.size = off + int64(len(frame))
	s.mu.Unlock()
	s.appends.Add(1)
	return nil
}

// Stats returns a snapshot of the store counters. Each counter is
// individually monotonic; the snapshot as a whole is not atomic.
func (s *Store) Stats() Stats {
	st := Stats{
		RecordsLoaded:   s.recordsLoaded.Load(),
		BytesLoaded:     s.bytesLoaded.Load(),
		TailTruncations: s.tailTruncations.Load(),
		Invalidations:   s.invalidations.Load(),
		Appends:         s.appends.Load(),
		AppendErrors:    s.appendErrors.Load(),
		Dropped:         s.dropped.Load(),
	}
	s.mu.RLock()
	st.SizeBytes = s.size
	st.LiveKeys = len(s.index)
	s.mu.RUnlock()
	return st
}

// ScanSummary reports what a streamed scan consumed.
type ScanSummary struct {
	// Records and Bytes count good frames; Truncated reports whether
	// the stream ended in a torn frame that was dropped.
	Records   int   `json:"records"`
	Bytes     int64 `json:"bytes"`
	Truncated bool  `json:"truncated"`
}

// ErrGenerationMismatch reports a scanned stream stamped with a
// different generation than expected.
var ErrGenerationMismatch = errors.New("store: generation mismatch")

// ScanStream reads a store log (header + records) from r — for
// example, another replica's log file posted to a warmup endpoint —
// calling fn for each good record. The header generation must equal
// generation or ErrGenerationMismatch is returned before any fn call.
// A torn tail ends the scan cleanly (reported in the summary), exactly
// like the boot scan.
func ScanStream(r io.Reader, generation string, fn func(rec Record) error) (ScanSummary, error) {
	var sum ScanSummary
	br := bufio.NewReader(r)
	gen, _, err := readHeader(br)
	if err != nil {
		return sum, fmt.Errorf("store: bad stream header: %w", err)
	}
	if gen != generation {
		return sum, fmt.Errorf("%w: stream %q, want %q", ErrGenerationMismatch, gen, generation)
	}
	for {
		payload, _, err := readFrame(br, nil) // fn may keep rec.Value: Warmup re-appends it
		if err == io.EOF {
			return sum, nil
		}
		if err != nil {
			sum.Truncated = true
			return sum, nil
		}
		sum.Records++
		sum.Bytes += int64(8 + len(payload))
		kind, key, value, _ := parsePayload(payload) // readFrame checked it parses
		if err := fn(Record{Kind: kind, Key: string(key), Value: value}); err != nil {
			return sum, err
		}
	}
}

// readHeader consumes and validates the magic + generation header.
func readHeader(br *bufio.Reader) (gen string, hdrLen int64, err error) {
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return "", 0, errTorn
	}
	if m != magic {
		return "", 0, errors.New("store: bad magic")
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return "", 0, errTorn
	}
	n := int(binary.LittleEndian.Uint16(lenBuf[:]))
	genBuf := make([]byte, n)
	if _, err := io.ReadFull(br, genBuf); err != nil {
		return "", 0, errTorn
	}
	return string(genBuf), int64(8 + 2 + n), nil
}

// readFrame consumes one frame and returns its payload, checked to parse,
// with the CRC it was verified against. io.EOF means a clean end exactly
// at a frame boundary; errTorn any syntactic breakage (the truncated-tail
// case). With buf nil the payload is a fresh allocation; otherwise it is
// read into *buf, grown as needed, and is valid only until the next call
// with the same buf.
func readFrame(br *bufio.Reader, buf *[]byte) (payload []byte, crc uint32, err error) {
	// Peek reads the header in place: an array passed to io.ReadFull
	// would escape, one allocation per frame.
	hdr, err := br.Peek(8)
	if len(hdr) == 0 {
		return nil, 0, io.EOF // clean boundary
	}
	if err != nil {
		return nil, 0, errTorn
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	crc = binary.LittleEndian.Uint32(hdr[4:])
	_, _ = br.Discard(8) // the 8 bytes were just peeked, so this cannot fail
	if n == 0 || n > maxPayload {
		return nil, 0, errTorn
	}
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, errTorn
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, errTorn
	}
	if _, _, _, err := parsePayload(payload); err != nil {
		return nil, 0, errTorn
	}
	return payload, crc, nil
}

// payloadBytes encodes kind | uvarint(keyLen) | key | value.
func payloadBytes(rec Record) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen32+len(rec.Key)+len(rec.Value))
	buf = append(buf, rec.Kind)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(buf, rec.Key...)
	buf = append(buf, rec.Value...)
	return buf
}

// parsePayload is the inverse of payloadBytes. key and value are
// subslices of buf.
func parsePayload(buf []byte) (kind byte, key, value []byte, err error) {
	if len(buf) < 2 {
		return 0, nil, nil, errTorn
	}
	keyLen, n := binary.Uvarint(buf[1:])
	if n <= 0 || keyLen > uint64(len(buf)-1-n) {
		return 0, nil, nil, errTorn
	}
	start := 1 + n
	end := start + int(keyLen)
	return buf[0], buf[start:end], buf[end:], nil
}
