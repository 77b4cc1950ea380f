// Package keyhash is the 64-bit FNV-1a hash of serving keys. The service
// cache picks a key's shard and slot with it and the store log indexes
// records by it, so one definition serves both: a store walk can tell
// which cache shard a record belongs to from its index entry alone, and
// the service can hash a key from its parts without building it.
package keyhash

const (
	// Offset is the hash of the empty key.
	Offset uint64 = 14695981039346656037
	prime  uint64 = 1099511628211
)

// Of returns the hash of key.
func Of[T ~string | ~[]byte](key T) uint64 { return Add(Offset, key) }

// Add extends h, the hash of some prefix, by s: Add(Of(a), b) == Of(a+b).
func Add[T ~string | ~[]byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// AddHex extends h by the lower-case hex encoding of b, as
// Add(h, hex.EncodeToString(b)) would, without building the encoding.
func AddHex(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(hexDigits[c>>4])) * prime
		h = (h ^ uint64(hexDigits[c&15])) * prime
	}
	return h
}

// HexEqual reports whether s is the lower-case hex encoding of b, without
// building the encoding.
func HexEqual(s string, b []byte) bool {
	if len(s) != 2*len(b) {
		return false
	}
	for i, c := range b {
		if s[2*i] != hexDigits[c>>4] || s[2*i+1] != hexDigits[c&15] {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"
