package serve

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"oarsmt/internal/grid"
	"oarsmt/internal/layout"
	"oarsmt/internal/nn"
	"oarsmt/internal/selector"
)

// TestStoreWarmRestartBitIdentical is the route store's acceptance
// criterion: after the process "dies" (service closed, a new one opened
// over the same directory with the same model), every previously-routed
// layout is served from the disk tier bit-identically — same cost, same
// edges — with zero selector inferences, pinned by the obs counters.
func TestStoreWarmRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})

	type routed struct {
		in    *layout.Instance
		cost  float64
		edges [][2]Coord3
	}
	var want []routed
	for i := 0; i < 6; i++ {
		in := serveInstance(t, int64(200+i), 6+i%3, 8, 2, 4+i%2)
		resp, err := cold.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StoreHit {
			t.Fatal("first routing of a layout reported a store hit")
		}
		want = append(want, routed{in: in, cost: resp.Cost, edges: resp.Edges})
	}
	cold.Close() // flushes pending store writes; stands in for the old process exiting
	if st := cold.Stats(); st.StoreWrites == 0 {
		t.Fatalf("no store writes recorded: %+v", st)
	}

	// "Restart": a brand-new service over the same directory, with a
	// selector rebuilt from the same seed — exactly what a daemon restart
	// loading the same model file does. Every answer must come from a
	// record loaded off disk.
	warm := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	if st := warm.Stats(); st.StoreEntries != len(want) {
		t.Fatalf("warm store loaded %d entries, want %d", st.StoreEntries, len(want))
	}
	for i, w := range want {
		resp, err := warm.Submit(context.Background(), w.in)
		if err != nil {
			t.Fatalf("layout %d after restart: %v", i, err)
		}
		if !resp.StoreHit || !resp.CacheHit {
			t.Fatalf("layout %d: StoreHit=%v CacheHit=%v, want both", i, resp.StoreHit, resp.CacheHit)
		}
		if resp.Cost != w.cost {
			t.Errorf("layout %d: warm cost %v != cold cost %v", i, resp.Cost, w.cost)
		}
		if !reflect.DeepEqual(resp.Edges, w.edges) {
			t.Errorf("layout %d: warm tree differs from cold tree", i)
		}
	}
	st := warm.Stats()
	if st.Inferences != 0 {
		t.Fatalf("warm restart spent %d selector inferences, want 0", st.Inferences)
	}
	if st.StoreServed != int64(len(want)) {
		t.Errorf("storeServed = %d, want %d", st.StoreServed, len(want))
	}
}

// TestStoreFingerprintSwapInvalidates pins the staleness guarantee: a
// restart with a *different* selector (a retrained model) invalidates 100%
// of the stored routes — nothing is served from disk, everything is routed
// fresh with real inferences.
func TestStoreFingerprintSwapInvalidates(t *testing.T) {
	dir := t.TempDir()
	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	const n = 4
	ins := make([]*layout.Instance, n)
	for i := range ins {
		ins[i] = serveInstance(t, int64(300+i), 7, 7, 2, 5)
		if _, err := cold.Submit(context.Background(), ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	cold.Close()

	warm := newTestService(t, Config{Selector: otherSelector(t), StoreDir: dir})
	st := warm.Stats()
	if st.StoreEntries != 0 {
		t.Fatalf("retrained-model restart kept %d stale entries", st.StoreEntries)
	}
	if st.StoreInvalidations != n {
		t.Fatalf("invalidations = %d, want %d (100%%)", st.StoreInvalidations, n)
	}
	for i, in := range ins {
		resp, err := warm.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StoreHit {
			t.Fatalf("layout %d served a stale route after a model swap", i)
		}
	}
	if warm.Stats().Inferences == 0 {
		t.Fatal("retrained-model restart spent no inferences: stale routes served")
	}
}

// TestStoreHitAcrossOrientationsAfterRestart: the disk tier is keyed by the
// augmentation-normalized hash, so after a restart every one of the 16
// orientations of a previously-routed layout is a store hit.
func TestStoreHitAcrossOrientationsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	in := serveInstance(t, 77, 6, 8, 2, 5)

	cold := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	if _, err := cold.Submit(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	cold.Close()

	warm := newTestService(t, Config{Selector: tinySelector(t), StoreDir: dir})
	for _, a := range grid.AllAugmentations() {
		resp, err := warm.Submit(context.Background(), augmentInstance(in, a))
		if err != nil {
			t.Fatalf("orientation %+v: %v", a, err)
		}
		if !resp.StoreHit {
			t.Errorf("orientation %+v missed the store after restart", a)
		}
	}
	if got := warm.Stats().Inferences; got != 0 {
		t.Fatalf("warm orientations spent %d inferences, want 0", got)
	}
}

// TestCacheEvictionCounterAndTierSizes pins the single route tier's sizes
// and evictions on /stats and the registry. With a store directory the
// store's index is the tier and StoreMaxEntries bounds it (CacheSize is
// unused); without one, CacheSize bounds the memory-only tier, and a
// negative CacheSize disables caching.
func TestCacheEvictionCounterAndTierSizes(t *testing.T) {
	submit := func(s *Service, seed int64) *Response {
		t.Helper()
		resp, err := s.Submit(context.Background(), serveInstance(t, seed, 6, 6, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("store", func(t *testing.T) {
		s := newTestService(t, Config{Selector: tinySelector(t), CacheSize: 2, StoreDir: t.TempDir(), StoreMaxEntries: 3})
		for i := 0; i < 5; i++ {
			submit(s, int64(400+i))
		}
		st := s.Stats()
		if st.CacheEntries != 3 || st.StoreEntries != 3 {
			t.Errorf("cacheEntries = %d, storeEntries = %d, want 3 and 3 (one tier)", st.CacheEntries, st.StoreEntries)
		}
		if st.CacheEvictions != 2 || st.StoreEvictions != 2 { // 5 layouts through a 3-record tier
			t.Errorf("cacheEvictions = %d, storeEvictions = %d, want 2 and 2", st.CacheEvictions, st.StoreEvictions)
		}
		snap := s.Registry().Snapshot()
		for name, want := range map[string]float64{"serve.cache.size": 3, "store.entries": 3, "serve.cache.evictions": 2} {
			if got := snap.Gauges[name]; got != want {
				t.Errorf("%s gauge = %v, want %v", name, got, want)
			}
		}
		if got := snap.Counters["store.evictions"]; got != 2 {
			t.Errorf("store.evictions counter = %v, want 2", got)
		}
		if !submit(s, 404).CacheHit || submit(s, 401).CacheHit {
			t.Error("the tier did not keep exactly the most recent layouts")
		}
	})

	t.Run("memory", func(t *testing.T) {
		s := newTestService(t, Config{Selector: tinySelector(t), CacheSize: 2})
		for i := 0; i < 5; i++ {
			submit(s, int64(400+i))
		}
		st := s.Stats()
		if st.CacheEntries != 2 || st.CacheEvictions != 3 { // 5 layouts through a 2-record tier
			t.Errorf("cacheEntries = %d, cacheEvictions = %d, want 2 and 3", st.CacheEntries, st.CacheEvictions)
		}
		if st.StoreEntries != 0 || st.StoreEvictions != 0 {
			t.Errorf("memory-only tier reported store sizes: %+v", st)
		}
		snap := s.Registry().Snapshot()
		if got := snap.Gauges["serve.cache.size"]; got != 2 {
			t.Errorf("serve.cache.size gauge = %v, want 2", got)
		}
		if got := snap.Gauges["serve.cache.evictions"]; got != 3 {
			t.Errorf("serve.cache.evictions gauge = %v, want 3", got)
		}
		if _, ok := snap.Gauges["store.entries"]; ok {
			t.Error("memory-only tier exported store.* metrics")
		}
		if !submit(s, 404).CacheHit || submit(s, 400).CacheHit {
			t.Error("the tier did not keep exactly the most recent layouts")
		}
	})

	t.Run("disabled", func(t *testing.T) {
		s := newTestService(t, Config{Selector: tinySelector(t), CacheSize: -1})
		submit(s, 400)
		if submit(s, 400).CacheHit {
			t.Error("a disabled tier served a cache hit")
		}
		if st := s.Stats(); st.CacheEntries != 0 || st.CacheEvictions != 0 {
			t.Errorf("disabled tier sizes: %+v", st)
		}
	})
}

// otherSelector returns a selector with different weights than
// tinySelector's (a stand-in for a retrained model).
func otherSelector(t *testing.T) *selector.Selector {
	t.Helper()
	s, err := selector.NewRandom(rand.New(rand.NewSource(999)),
		nn.UNetConfig{InChannels: selector.NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
