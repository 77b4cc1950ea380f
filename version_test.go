package hetrta

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// servedBytesManifest records, for one AlgorithmVersion, the SHA-256 of
// every byte-contract golden: the files that pin bytes the daemon serves
// or keys its caches and store log by.
const servedBytesManifest = "testdata/served_bytes.json"

// byteContractGoldens are the globs of those files: the Report and
// AdmitReport wire goldens, the exact search's path golden (its
// Expansions are a Report field) and the fingerprint table (the cache and
// store key).
var byteContractGoldens = []string{
	"testdata/golden/*.json",
	"internal/exact/testdata/search_golden.json",
	"internal/dag/testdata/fingerprint_golden.json",
}

type servedBytes struct {
	Version int               `json:"version"`
	SHA256  map[string]string `json:"sha256"`
}

func hashByteContractGoldens(t *testing.T) map[string]string {
	t.Helper()
	hashes := make(map[string]string)
	for _, glob := range byteContractGoldens {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no byte-contract golden matches %s", glob)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			hashes[filepath.ToSlash(p)] = hex.EncodeToString(sum[:])
		}
	}
	return hashes
}

// TestServedBytesVersioned fails when a byte-contract golden moves while
// AlgorithmVersion stays put: a binary that serves different bytes under
// the same version would keep serving an older binary's store log. After
// a deliberate change, bump AlgorithmVersion and re-record:
//
//	go test -run TestServedBytesVersioned -update .
//
// -update refuses to re-record moved hashes under an unchanged version.
func TestServedBytesVersioned(t *testing.T) {
	got := hashByteContractGoldens(t)
	var rec servedBytes
	data, err := os.ReadFile(servedBytesManifest)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
	}
	var moved []string
	for p, h := range got {
		if rec.SHA256[p] != h {
			moved = append(moved, p)
		}
	}
	for p := range rec.SHA256 {
		if _, ok := got[p]; !ok {
			moved = append(moved, p)
		}
	}
	slices.Sort(moved)

	if *updateGolden {
		if len(moved) > 0 && rec.Version == AlgorithmVersion {
			t.Fatalf("byte-contract goldens moved under unchanged AlgorithmVersion %d: %v; bump it first", AlgorithmVersion, moved)
		}
		out, err := json.MarshalIndent(servedBytes{Version: AlgorithmVersion, SHA256: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedBytesManifest, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if rec.Version != AlgorithmVersion {
		t.Fatalf("%s records AlgorithmVersion %d, the code is at %d: re-record it with -update", servedBytesManifest, rec.Version, AlgorithmVersion)
	}
	for _, p := range moved {
		t.Errorf("byte-contract golden %s moved without an AlgorithmVersion bump (recorded %q, now %q)", p, rec.SHA256[p], got[p])
	}
}
