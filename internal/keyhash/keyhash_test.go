package keyhash

import (
	"hash/fnv"
	"testing"
)

// TestMatchesFNV1a pins the hash to the standard library's FNV-1a, for
// string and []byte keys alike.
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
	}
}
