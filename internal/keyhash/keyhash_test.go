package keyhash

import (
	"encoding/hex"
	"hash/fnv"
	"testing"
)

// TestMatchesFNV1a pins the hash to the standard library's FNV-1a, and the
// incremental and hex forms to the hash of the built key.
func TestMatchesFNV1a(t *testing.T) {
	raw := []byte{0x00, 0x0f, 0xa5, 0xff, 0x10}
	for _, key := range []string{"", "a", "0123abcd|sig", string(raw)} {
		ref := fnv.New64a()
		ref.Write([]byte(key))
		if got, want := Of(key), ref.Sum64(); got != want {
			t.Errorf("Of(%q) = %#x, want %#x", key, got, want)
		}
		if Of([]byte(key)) != Of(key) {
			t.Errorf("Of differs between string and []byte for %q", key)
		}
		if got, want := Add(Of("prefix|"), key), Of("prefix|"+key); got != want {
			t.Errorf("Add(Of(prefix), %q) = %#x, want %#x", key, got, want)
		}
	}
	enc := hex.EncodeToString(raw)
	if got, want := AddHex(Of("deg|"), raw), Of("deg|"+enc); got != want {
		t.Errorf("AddHex = %#x, want %#x", got, want)
	}
	if !HexEqual(enc, raw) {
		t.Errorf("HexEqual(%q, %x) = false", enc, raw)
	}
	for _, s := range []string{enc[:len(enc)-1], enc + "0", "000fa5ff11", "000FA5FF10"} {
		if HexEqual(s, raw) {
			t.Errorf("HexEqual(%q, %x) = true", s, raw)
		}
	}
}
