package client

import (
	"context"
	"net/http"

	"oarsmt/wire"
)

// Cluster-plane calls, issued by workers against a coordinator. They go
// through the same timeout/retry policy as the data plane: a register
// or renewal that hits a transient coordinator failure retries with the
// deterministic backoff schedule.

// Register announces a worker to the coordinator and returns the
// granted lease. Re-registering a known ID renews its lease and updates
// its address.
func (c *Client) Register(ctx context.Context, req wire.RegisterRequest) (*wire.RegisterResponse, error) {
	var resp wire.RegisterResponse
	if err := c.do(ctx, http.MethodPost, wire.PathRegister, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RenewLease extends a worker's registration before it expires.
func (c *Client) RenewLease(ctx context.Context, id string) (*wire.LeaseResponse, error) {
	var resp wire.LeaseResponse
	if err := c.do(ctx, http.MethodPost, wire.PathLease, wire.LeaseRequest{ID: id}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Replicate installs a finished route into a worker's route tier; the
// coordinator calls it against the next ring replica after a fresh
// answer. The worker re-validates before installing.
func (c *Client) Replicate(ctx context.Context, req wire.ReplicateRequest) (*wire.ReplicateResponse, error) {
	var resp wire.ReplicateResponse
	if err := c.do(ctx, http.MethodPost, wire.PathReplicate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Drain tells the coordinator to stop routing new work to a worker that
// is shutting down; in-flight requests finish on the worker's own drain
// path.
func (c *Client) Drain(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, wire.PathDrain, wire.DrainRequest{ID: id}, nil)
}
