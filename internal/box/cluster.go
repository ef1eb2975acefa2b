// Cluster: the multi-core runtime. A cluster partitions a box
// population across N runtime shards — each shard one loop goroutine,
// one MPSC inbox, one hierarchical timer wheel — so hot dispatch stays
// core-local: a box's events, timers, and channel table are touched
// only by its shard's loop, and nothing on the dispatch path takes a
// lock shared between shards.
//
// Placement is a consistent hash (Lamping–Veach jump hash) of the box
// name. The hash is stable across runs and nearly minimal across
// resizes: growing N shards to N+1 moves ~1/(N+1) of the boxes. That
// matters because placement is the seam this runtime will eventually
// split along — the paper's composition model says nothing about
// co-location, and a channel between two boxes is the same channel
// whether its peer is on this shard (inline ring, drained by our own
// loop), another shard (inline ring, drained by the peer's loop), or
// another process (a TCP port, drained by our own loop on its reader's
// edge). Boxes cannot observe their placement;
// "shards today, processes tomorrow" is a config change, not a model
// change.
package box

import (
	"strconv"
	"sync"

	"ipmedia/internal/timerwheel"
	"ipmedia/internal/transport"
)

// Cluster runs boxes across a fixed set of runtime shards.
type Cluster struct {
	net    transport.Network
	shards []*shard

	mu      sync.Mutex
	runners []*Runner
	stopped bool
}

// NewCluster creates a cluster of n shards (n < 1 is treated as 1)
// over net. Each shard gets its own timer wheel; shard s exports
// "runner.inbox_depth.s<s>" and "timerwheel.pending.s<s>" gauges
// alongside the process-wide aggregates.
func NewCluster(net transport.Network, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{net: net, shards: make([]*shard, n)}
	for i := range c.shards {
		w := timerwheel.NewNamed(timerwheel.DefaultTick, "s"+strconv.Itoa(i))
		c.shards[i] = newShard(i, w)
	}
	return c
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// ShardOf reports the shard index a box name places onto.
func (c *Cluster) ShardOf(name string) int {
	return ShardOfName(name, len(c.shards))
}

// ShardOfName is the one placement function of the runtime: the shard
// index box name places onto in an n-shard fleet. The in-process
// cluster and the multi-process router share it, so a box keeps its
// owner when shards are promoted from goroutines to OS processes.
func ShardOfName(name string, n int) int {
	if n < 1 {
		n = 1
	}
	return jumpHash(fnv64(name), n)
}

// Runner places b on its hash-assigned shard and returns its runner.
func (c *Cluster) Runner(b *Box) *Runner {
	return c.RunnerOn(c.ShardOf(b.Name()), b)
}

// RunnerOn places b on an explicit shard — for tests and benchmarks
// that need to force co-location or cross-shard traffic.
func (c *Cluster) RunnerOn(shard int, b *Box) *Runner {
	r := newRunner(b, c.net, c.shards[shard], false)
	c.mu.Lock()
	c.runners = append(c.runners, r)
	c.mu.Unlock()
	return r
}

// Stop stops every runner created through the cluster, then shuts the
// shard loops and timer wheels down. Idempotent. Every runner's stop
// item is posted before Stop waits for any, so the cleanup lands on all
// shards at once, and all of it from the calling goroutine: a goroutine
// per runner would leave its record with the runtime for good.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		rs := c.runners
		c.mu.Unlock()
		for _, r := range rs {
			r.Stop() // waits; a concurrent first Stop may still be draining
		}
		return
	}
	c.stopped = true
	rs := c.runners
	c.mu.Unlock()

	for _, r := range rs {
		r.stopOnce.Do(r.postStop)
	}
	for _, r := range rs {
		r.Stop()
	}
	for _, s := range c.shards {
		s.close()
	}
	for _, s := range c.shards {
		s.wg.Wait()
		s.wheel.Close()
	}
}

// fnv64 is FNV-1a over a string, the placement key for jump hashing.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// jumpHash is the Lamping–Veach jump consistent hash: maps key to a
// bucket in [0, buckets) such that changing the bucket count moves the
// minimum number of keys.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
