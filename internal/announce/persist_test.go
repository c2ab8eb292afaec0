package announce

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(900000000, 0)
	c.Observe(desc(1, 1), now)
	c.Observe(desc(2, 3), now.Add(time.Minute))
	c.Observe(desc(3, 1), now)
	c.Delete(desc(3, 1).Key(), now.Add(2*time.Minute)) // deleted: not saved

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewCache(time.Hour)
	n, err := fresh.Load(&buf, now.Add(3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d entries, want 2", n)
	}
	e, ok := fresh.Get(desc(2, 3).Key())
	if !ok || e.Desc.Version != 3 {
		t.Fatalf("entry 2 wrong: %+v", e)
	}
	if !e.LastHeard.Equal(now.Add(time.Minute)) {
		t.Fatalf("LastHeard %v", e.LastHeard)
	}
	if _, ok := fresh.Get(desc(3, 1).Key()); ok {
		t.Fatal("deleted entry resurrected")
	}
}

func TestCacheLoadSkipsStale(t *testing.T) {
	c := NewCache(10 * time.Minute)
	now := time.Unix(900000000, 0)
	c.Observe(desc(1, 1), now)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(10 * time.Minute)
	n, err := fresh.Load(&buf, now.Add(time.Hour)) // far past the timeout
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || fresh.Len() != 0 {
		t.Fatalf("stale entries loaded: %d", n)
	}
}

func TestCacheLoadMergePrefersFresh(t *testing.T) {
	now := time.Unix(900000000, 0)
	old := NewCache(time.Hour)
	old.Observe(desc(1, 1), now)
	var buf bytes.Buffer
	if err := old.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The live cache already knows a *newer* version.
	live := NewCache(time.Hour)
	live.Observe(desc(1, 5), now.Add(time.Minute))
	n, err := live.Load(&buf, now.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("merged %d duplicate entries", n)
	}
	e, _ := live.Get(desc(1, 5).Key())
	if e.Desc.Version != 5 {
		t.Fatalf("version regressed to %d", e.Desc.Version)
	}
}

func TestCacheLoadUpgradesVersion(t *testing.T) {
	now := time.Unix(900000000, 0)
	newer := NewCache(time.Hour)
	newer.Observe(desc(1, 9), now)
	var buf bytes.Buffer
	if err := newer.Save(&buf); err != nil {
		t.Fatal(err)
	}
	live := NewCache(time.Hour)
	live.Observe(desc(1, 2), now.Add(time.Second))
	if _, err := live.Load(&buf, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	e, _ := live.Get(desc(1, 2).Key())
	if e.Desc.Version != 9 {
		t.Fatalf("disk had v9, cache has v%d", e.Desc.Version)
	}
}

func TestCacheLoadErrors(t *testing.T) {
	c := NewCache(time.Hour)
	cases := map[string]string{
		"empty":      "",
		"bad header": "nonsense\n",
		"bad entry":  "sdcache v1\nentry x y z\n",
		"huge entry": "sdcache v1\nentry 1 1 9999999\n",
		"truncated":  "sdcache v1\nentry 1 1 500\nshort",
	}
	for name, in := range cases {
		if _, err := c.Load(strings.NewReader(in), time.Now()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A corrupt SDP body is skipped, not fatal.
	in := "sdcache v1\nentry 1 900000000 7\nnot sdp\n"
	n, err := c.Load(strings.NewReader(in), time.Unix(900000060, 0))
	if err != nil || n != 0 {
		t.Fatalf("corrupt body: n=%d err=%v", n, err)
	}
}

func TestCacheSaveLoadManyEntries(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(900000000, 0)
	for i := uint64(1); i <= 200; i++ {
		c.Observe(desc(i, i%7+1), now)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(time.Hour)
	n, err := fresh.Load(&buf, now.Add(time.Minute))
	if err != nil || n != 200 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if fresh.Len() != 200 {
		t.Fatalf("len=%d", fresh.Len())
	}
}

// Save writes in key order, so two caches holding the same entries
// produce byte-identical snapshots whatever order they learned them in.
func TestCacheSaveBytesIndependentOfInsertOrder(t *testing.T) {
	now := time.Unix(900000000, 0)
	save := func(ids []uint64) []byte {
		c := NewCache(time.Hour)
		for _, id := range ids {
			c.Observe(odesc(byte(id%5+1), id, 1), now)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ids := make([]uint64, 40)
	rev := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i + 1)
		rev[len(rev)-1-i] = uint64(i + 1)
	}
	if !bytes.Equal(save(ids), save(rev)) {
		t.Fatal("snapshot bytes depend on insertion order")
	}
}
