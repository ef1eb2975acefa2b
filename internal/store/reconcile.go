// Fleet-wide CDR reconciliation. Each shard process owns a shard-local
// store (a WAL in its own directory); a SIGKILL takes the
// process but not the directory, and the restarted shard recovers by
// replay. Reconciliation is the after-the-storm audit that turns that
// per-shard property into a fleet-wide one: reopen every shard's
// directory, compare what recovery found against the last count each
// shard acknowledged as durable, and check that no CDR leaked across
// the placement function into two shards' ledgers. The durability
// claim under crash-kill chaos is exactly "Lost == 0": an acked CDR
// survives its shard's death.
package store

import (
	"fmt"
	"sort"
	"strconv"
)

// ShardLedger is one shard's side of the reconciliation.
type ShardLedger struct {
	Shard     int    `json:"shard"`
	Dir       string `json:"dir"`
	Acked     uint64 `json:"acked"`           // CDRs the shard last reported fsync-acked
	Recovered int    `json:"recovered"`       // CDRs found by replay at reconciliation
	Replayed  int    `json:"replayed"`        // well-formed WAL records replayed
	Truncated int64  `json:"truncated_bytes"` // corrupt tail discarded by recovery
	Lost      uint64 `json:"lost"`            // acked but not recovered — must be 0
}

// FleetReport is the reconciliation verdict.
type FleetReport struct {
	Shards     []ShardLedger `json:"shards"`
	TotalCDRs  int           `json:"total_cdrs"`
	Duplicates int           `json:"duplicates"`
	Lost       uint64        `json:"lost"`
	OK         bool          `json:"ok"`
}

// ReconcileFleet reopens every shard's store directory and audits the
// fleet ledger: per shard, recovery must find at least every CDR the
// shard acknowledged as durable (acked, from its last heartbeat or
// report — the supervisor's last-known view if the shard died); across
// shards, no call record may appear in two ledgers (placement owns
// each box, so each teardown is observed exactly once). The stores are
// opened read-and-closed; the shard processes must be stopped first.
func ReconcileFleet(dirs map[int]string, acked map[int]uint64) (FleetReport, error) {
	var rep FleetReport
	shards := make([]int, 0, len(dirs))
	for i := range dirs {
		shards = append(shards, i)
	}
	sort.Ints(shards)
	seen := make(map[string]int) // call key -> owning shard
	for _, i := range shards {
		s, err := Open(dirs[i], Options{})
		if err != nil {
			return rep, fmt.Errorf("store: reconcile shard %d: %w", i, err)
		}
		rec := s.Recovery()
		led := ShardLedger{
			Shard:     i,
			Dir:       dirs[i],
			Acked:     acked[i],
			Recovered: s.CDRCount(),
			Replayed:  rec.Records,
			Truncated: rec.Truncated,
		}
		s.EachCDR(func(c CDR) bool {
			key := c.Local + "\x00" + c.Channel + "\x00" + strconv.FormatInt(c.SetupNS, 10)
			if prev, dup := seen[key]; dup && prev != i {
				rep.Duplicates++
			}
			seen[key] = i
			return true
		})
		s.Close()
		if led.Acked > uint64(led.Recovered) {
			led.Lost = led.Acked - uint64(led.Recovered)
		}
		rep.Lost += led.Lost
		rep.TotalCDRs += led.Recovered
		rep.Shards = append(rep.Shards, led)
	}
	rep.OK = rep.Lost == 0 && rep.Duplicates == 0
	return rep, nil
}
