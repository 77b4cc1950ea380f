// Package keyhash is the 64-bit FNV-1a hash of serving keys: the service
// cache picks a key's shard with it, and the store log indexes records by
// it.
package keyhash

const (
	offset uint64 = 14695981039346656037
	prime  uint64 = 1099511628211
)

// Of returns the hash of key.
func Of[T ~string | ~[]byte](key T) uint64 {
	h := offset
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return h
}
