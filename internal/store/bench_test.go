package store

import (
	"testing"

	"oarsmt/internal/obs"
)

// benchRecords builds n distinct records of routing-typical size.
func benchRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	return recs
}

func benchOptions(dir string) Options {
	var tick int64
	return Options{
		Dir:        dir,
		MaxEntries: 1 << 20,
		Registry:   obs.NewRegistry(),
		now:        func() int64 { tick += 1000; return tick },
	}
}

// BenchmarkStoreSegmentWrite measures segment write throughput: encode +
// ckpt frame + fsync + rename per 256-record batch.
func BenchmarkStoreSegmentWrite(b *testing.B) {
	dir := b.TempDir()
	recs := benchRecords(256)
	payload := encodeSegment(Fingerprint{1}, recs)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeSegmentFile(dir, i, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCompact measures compaction throughput: 16 segments of 64
// records merged into one.
func BenchmarkStoreCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := benchOptions(b.TempDir())
		opts.FlushEvery = 1 << 30 // manual flushes only
		opts.CompactAfter = 1 << 30
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		for seg := 0; seg < 16; seg++ {
			for _, r := range benchRecords(64) {
				r.Key[30], r.Key[31] = byte(seg), r.Key[0] // distinct per segment
				s.Put(r)
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
	}
}

// BenchmarkStoreOpenWarm measures the warm-restart cost itself: replaying a
// compacted 4096-record directory into a fresh index.
func BenchmarkStoreOpenWarm(b *testing.B) {
	dir := b.TempDir()
	opts := benchOptions(dir)
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		r := testRecord(i)
		r.Key[29] = byte(i >> 16)
		s.Put(r)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(benchOptions(dir))
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 4096 {
			b.Fatalf("warm open loaded %d records", s.Len())
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkStoreGet measures the index lookup the serving hot path pays on
// a disk-tier hit (the record decode already happened at Open).
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(benchOptions(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 1024
	keys := make([]Key, n)
	for i := 0; i < n; i++ {
		r := testRecord(i)
		r.Key[28] = byte(i >> 16)
		keys[i] = r.Key
		s.Put(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%n]); !ok {
			b.Fatal("miss")
		}
	}
}
