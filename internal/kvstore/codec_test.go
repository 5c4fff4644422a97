package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"gimbal/internal/sim"
)

func TestBlockRoundTrip(t *testing.T) {
	entries := []Entry{
		{K: 1, V: []byte("alpha"), VLen: 5},
		{K: 7, V: []byte("beta"), VLen: 4},
		{K: 9, Tomb: true},
		{K: 12, VLen: 100}, // scale mode: length only
	}
	buf, err := EncodeBlock(entries, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4096 {
		t.Fatalf("block size %d, want exactly 4096 (padded)", len(buf))
	}
	got, err := DecodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.K != e.K || g.VLen != e.VLen || g.Tomb != e.Tomb || !bytes.Equal(g.V, e.V) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, g, e)
		}
	}
}

func TestBlockOverflowRejected(t *testing.T) {
	big := Entry{K: 1, V: make([]byte, 8000), VLen: 8000}
	if _, err := EncodeBlock([]Entry{big}, 4096); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestBlockVLenMismatchRejected(t *testing.T) {
	bad := Entry{K: 1, V: []byte("xy"), VLen: 5}
	if _, err := EncodeBlock([]Entry{bad}, 4096); err == nil {
		t.Fatal("VLen/V mismatch accepted")
	}
}

func TestDecodeBlockTruncated(t *testing.T) {
	buf, err := EncodeBlock([]Entry{{K: 1, V: []byte("abcdef"), VLen: 6}}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(buf[:10]); err == nil {
		t.Fatal("truncated block decoded")
	}
	if _, err := DecodeBlock(buf[:1]); err == nil {
		t.Fatal("sub-header block decoded")
	}
}

// Property: any set of entries that fits a block round-trips exactly.
func TestBlockRoundTripProperty(t *testing.T) {
	f := func(keys []uint16, vals [][]byte) bool {
		var entries []Entry
		used := blockHdrLen
		seen := map[Key]bool{}
		for i, k := range keys {
			var v []byte
			if i < len(vals) && len(vals[i]) < 200 {
				v = vals[i]
			}
			e := Entry{K: Key(k), V: v, VLen: len(v), Tomb: k%7 == 0}
			if e.Tomb {
				e.V, e.VLen = nil, 0
			}
			if used+e.EncodedLen() > 4096 || seen[e.K] {
				continue
			}
			seen[e.K] = true
			used += e.EncodedLen()
			entries = append(entries, e)
		}
		if len(entries) == 0 {
			return true
		}
		buf, err := EncodeBlock(entries, 4096)
		if err != nil {
			return false
		}
		got, err := DecodeBlock(buf)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].K != entries[i].K || got[i].Tomb != entries[i].Tomb ||
				got[i].VLen != entries[i].VLen || !bytes.Equal(got[i].V, entries[i].V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFaithfulTablesServeFromDecodedImage(t *testing.T) {
	// End to end: a faithful-mode DB must return the exact value bytes,
	// which now travel through EncodeBlock/DecodeBlock.
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("c", func(p *sim.Proc) {
		for k := Key(0); k < 1200; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		// Force reads from tables (not memtable) by checking early keys.
		found, v, _, err := db.Get(p, 3)
		if err != nil || !found || string(v) != string(val(3)) {
			t.Errorf("get via image: found=%v v=%q err=%v", found, v, err)
		}
		db.Close()
	})
	loop.Run()
}
