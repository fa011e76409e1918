package hcompress

// Client is the backward-compatible single-tenant handle: a Router with
// exactly one Shard, with that shard embedded so every pipeline method
// (Compress, Decompress, the batch APIs, Status, Stats, ...) resolves
// directly against it; Close and MetricsAddr go through the router. A
// one-shard router routes every key to shard 0, so delegating straight
// to the shard is the same computation with the hash skipped — New's
// Client is behaviourally and trace-byte-identical to the pre-sharding
// client (gated by TestClientFacadeEquivalence).
//
// Scaling beyond one shard is NewRouter (key-routed shards, aggregate
// views) and internal/service (multi-tenant network front-end); Client
// stays the simple embedded-library face.
type Client struct {
	*Shard
	router *Router
}

// New initializes HCompress — the work the paper performs when
// intercepting MPI_Init: load the seed, build the component stack, and
// start the codec pool. The returned Client is a one-shard Router; use
// NewRouter directly for key-routed multi-shard operation.
func New(cfg Config) (*Client, error) {
	r, err := NewRouter(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Client{Shard: r.Shard(0), router: r}, nil
}

// Router exposes the underlying single-shard router, so a Client can be
// handed to anything (the service front-end, bench/) that drives a
// Router.
func (c *Client) Router() *Router { return c.router }

// Close finalizes the client (Router.Close) — the paper's MPI_Finalize.
func (c *Client) Close() error { return c.router.Close() }

// MetricsAddr is Router.MetricsAddr.
func (c *Client) MetricsAddr() string { return c.router.MetricsAddr() }
