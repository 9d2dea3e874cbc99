package route

import (
	"context"
	"errors"
	"testing"
	"time"

	"oarsmt/internal/grid"
)

// cancelledOARMST exercises the cancellation path: a pre-cancelled context
// must abort the construction with the context's error.
func TestOARMSTCancelled(t *testing.T) {
	g, err := grid.NewUniform(64, 64, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	terms := []grid.VertexID{g.Index(0, 0, 0), g.Index(63, 63, 1), g.Index(0, 63, 0)}
	if _, err := r.OARMST(terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("OARMST with cancelled context: err = %v, want context.Canceled", err)
	}
	if !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("Router.Err() = %v, want context.Canceled", r.Err())
	}
}

// TestOARMSTDeadline routes a large maze under a deadline that cannot be
// met and checks the search actually returns (promptly) with the deadline
// error instead of running to completion.
func TestOARMSTDeadline(t *testing.T) {
	g, err := grid.NewUniform(96, 96, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]grid.VertexID, 0, 24)
	for i := 0; i < 24; i++ {
		terms = append(terms, g.Index((i*17)%96, (i*41)%96, i%4))
	}
	r := NewRouter(g)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	r.SetContext(ctx)
	start := time.Now()
	_, err = r.OARMST(terms)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("OARMST past deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled OARMST took %v; cancellation is not prompt", elapsed)
	}
}

// TestRetraceDeadline retraces a detour-heavy tree on the same large maze
// past its deadline. It must return promptly with a valid tree no worse
// than its input, whether the deadline is seen before the first pass or
// inside a reroute's reverse ball search or forward search.
func TestRetraceDeadline(t *testing.T) {
	g, err := grid.NewUniform(96, 96, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]grid.VertexID, 0, 24)
	for i := 0; i < 24; i++ {
		terms = append(terms, g.Index((i*17)%96, (i*41)%96, i%4))
	}
	builder := NewRouter(g)
	builder.BoundedExploration = true
	tree, err := builder.OARMST(terms)
	if err != nil {
		t.Fatal(err)
	}
	past, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	// live reports no error for its first polls, so the deadline first
	// shows inside a search rather than at the top of a pass.
	for _, ctx := range []context.Context{past, &livePolls{Context: past, live: 1}, &livePolls{Context: past, live: 3}} {
		r := NewRouter(g)
		r.SetContext(ctx)
		start := time.Now()
		got, _ := r.Retrace(tree, terms, 3)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancelled Retrace took %v; cancellation is not prompt", elapsed)
		}
		if !errors.Is(r.Err(), context.DeadlineExceeded) {
			t.Fatalf("Router.Err() = %v, want context.DeadlineExceeded", r.Err())
		}
		if err := got.Validate(g, terms); err != nil {
			t.Fatal(err)
		}
		if got.Cost > tree.Cost {
			t.Fatalf("cancelled Retrace worsened the tree: %v -> %v", tree.Cost, got.Cost)
		}
	}
}

// livePolls wraps an expired context and hides its error from the first
// live calls to Err.
type livePolls struct {
	context.Context
	live int
}

func (c *livePolls) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return c.Context.Err()
}

// TestSetContextBackgroundIsFree checks that installing the background
// context disables polling and routing still succeeds.
func TestSetContextBackground(t *testing.T) {
	g, err := grid.NewUniform(8, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	r.SetContext(context.Background())
	tree, err := r.OARMST([]grid.VertexID{g.Index(0, 0, 0), g.Index(7, 7, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost <= 0 {
		t.Fatalf("cost = %v, want > 0", tree.Cost)
	}
}

// TestSteinerTreeCancelled checks the SteinerTree entry point propagates
// cancellation too.
func TestSteinerTreeCancelled(t *testing.T) {
	g, err := grid.NewUniform(48, 48, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.SetContext(ctx)
	pins := []grid.VertexID{g.Index(0, 0, 0), g.Index(47, 0, 0), g.Index(0, 47, 0)}
	if _, err := r.SteinerTree(pins, []grid.VertexID{g.Index(24, 24, 0)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SteinerTree with cancelled context: err = %v, want context.Canceled", err)
	}
}
