package route

import (
	"math/rand"
	"testing"

	"oarsmt/internal/grid"
)

func benchInstance(b *testing.B, h, v, m, pins, blocked int) (*grid.Graph, []grid.VertexID) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	g, err := grid.NewUniform(h, v, m, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < blocked; i++ {
		g.Block(grid.VertexID(r.Intn(g.NumVertices())))
	}
	var terms []grid.VertexID
	for len(terms) < pins {
		id := grid.VertexID(r.Intn(g.NumVertices()))
		if !g.Blocked(id) {
			terms = append(terms, id)
		}
	}
	// Ensure routability by unblocking a clear row per layer.
	for hh := 0; hh < h; hh++ {
		for mm := 0; mm < m; mm++ {
			g.Unblock(g.Index(hh, 0, mm))
		}
	}
	for vv := 0; vv < v; vv++ {
		for mm := 0; mm < m; mm++ {
			g.Unblock(g.Index(0, vv, mm))
		}
	}
	return g, terms
}

func BenchmarkOARMST32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	r := NewRouter(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.OARMST(terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOARMSTBounded32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	r := NewRouter(g)
	r.BoundedExploration = true
	r.BoundMargin = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.OARMST(terms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOARMST128x128(b *testing.B) {
	g, terms := benchInstance(b, 128, 128, 4, 64, 5000)
	r := NewRouter(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.OARMST(terms); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSteinerTree times SteinerTree over the instance's pins plus
// candidates free vertices drawn from a second seed.
func benchSteinerTree(b *testing.B, g *grid.Graph, terms []grid.VertexID, candidates int) {
	r := NewRouter(g)
	rng := rand.New(rand.NewSource(2))
	var sps []grid.VertexID
	for len(sps) < candidates {
		id := grid.VertexID(rng.Intn(g.NumVertices()))
		if !g.Blocked(id) {
			sps = append(sps, id)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SteinerTree(terms, sps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteinerTree32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	benchSteinerTree(b, g, terms, 6)
}

func BenchmarkSteinerTree128x128(b *testing.B) {
	g, terms := benchInstance(b, 128, 128, 4, 64, 5000)
	benchSteinerTree(b, g, terms, 48)
}

// benchRetrace times two retrace passes over the instance's OARMST.
func benchRetrace(b *testing.B, g *grid.Graph, terms []grid.VertexID) {
	r := NewRouter(g)
	tree, err := r.OARMST(terms)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Retrace(tree, terms, 2)
	}
}

func BenchmarkRetrace32x32(b *testing.B) {
	g, terms := benchInstance(b, 32, 32, 4, 8, 300)
	benchRetrace(b, g, terms)
}

func BenchmarkRetrace128x128(b *testing.B) {
	g, terms := benchInstance(b, 128, 128, 4, 64, 5000)
	benchRetrace(b, g, terms)
}

func BenchmarkShortestPath64(b *testing.B) {
	g, _ := benchInstance(b, 64, 64, 4, 2, 1000)
	r := NewRouter(g)
	src := g.Index(0, 0, 0)
	dst := g.Index(63, 63, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.ShortestPath(src, dst); !ok {
			b.Fatal("unreachable")
		}
	}
}
