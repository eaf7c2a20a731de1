package kvstore

import "netcache/internal/netproto"

// Engine is the storage surface a storage node exposes to the control plane
// and to harnesses. Store is its one implementation; the interface exists as
// a seam, so a test can wrap a Store and interpose on a call (the failover
// tests hold a resync's Range mid-flight). The method contracts are those of
// the Store methods of the same names.
type Engine interface {
	Get(key netproto.Key) (value []byte, version uint64, ok bool)
	GetAppend(key netproto.Key, dst []byte) (value []byte, version uint64, ok bool)
	ReadRetries() uint64
	Put(key netproto.Key, value []byte) (version uint64)
	PutAt(key netproto.Key, value []byte, version uint64)
	BumpVersion(key netproto.Key, version uint64)
	Delete(key netproto.Key) (version uint64, ok bool)
	Len() int
	Range(fn func(key netproto.Key, value []byte, version uint64) bool)
}

var _ Engine = (*Store)(nil)
