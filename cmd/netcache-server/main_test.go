package main

import (
	"testing"

	"netcache/internal/netproto"
)

func TestCheckPreload(t *testing.T) {
	for _, c := range []struct {
		valueSize, servers, addr int
		ok                       bool
	}{
		{64, 1, 1, true},
		{netproto.MaxValueSize, 4, 4, true},
		{1, 4, 2, true},
		{netproto.MaxValueSize + 1, 1, 1, false}, // no frame carries it
		{0, 1, 1, false},                         // a client cannot Put an empty value
		{-1, 1, 1, false},
		{64, 0, 1, false}, // the partition would divide by zero
		{64, 2, 3, false}, // this server owns no partition
	} {
		if err := checkPreload(c.valueSize, c.servers, c.addr); (err == nil) != c.ok {
			t.Errorf("checkPreload(%d, %d, %d) = %v, want ok=%v", c.valueSize, c.servers, c.addr, err, c.ok)
		}
	}
}
