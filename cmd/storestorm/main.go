// storestorm benchmarks the durable store's pluggable index backends
// under the two workloads the live runtime generates: OLTP-ish point
// lookups (every path setup consults the subscriber registry) and
// write-heavy CDR appends (every teardown cuts a record). Each backend
// runs the same storm — load the registry, hammer random lookups,
// append a CDR flood, then crash and time the WAL recovery — and the
// per-backend rows land in BENCH_store.json for the EXPERIMENTS
// comparison table.
//
// Lookups run with the registry cache disabled so the index backend
// itself is measured; the cached production hot path is reported once,
// separately, as cached_lookup_ns.
//
// The run is also a gate (-check): every lookup must hit, no
// acknowledged CDR append may be lost across the crash, and recovery
// must land on exactly the durable record count.
//
// Usage:
//
//	storestorm [-backends btree,log,scan] [-keys 5000] [-lookups 200000]
//	           [-cdrs 50000] [-fsync 2ms] [-seed 1] [-out BENCH_store.json]
//	           [-check]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ipmedia/internal/store"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
)

type backendResult struct {
	Backend string `json:"backend"`

	LoadMS   float64 `json:"load_ms"`
	LookupNS float64 `json:"lookup_ns"`
	LookupQP float64 `json:"lookups_per_sec"`
	AppendNS float64 `json:"append_ns"`
	AppendQP float64 `json:"appends_per_sec"`

	WALFsyncs   int64   `json:"wal_fsyncs"`
	WALBytes    int64   `json:"wal_bytes"`
	DurableCDRs uint64  `json:"durable_cdrs"`
	RecoveryMS  float64 `json:"recovery_ms"`
	Recovered   int     `json:"recovered_records"`
	TruncatedB  int64   `json:"truncated_tail_bytes"`
}

type result struct {
	Date string `json:"date"`

	Keys    int     `json:"keys"`
	Lookups int     `json:"lookups"`
	CDRs    int     `json:"cdrs"`
	FsyncMS float64 `json:"fsync_ms"`
	Seed    int64   `json:"seed"`

	CachedLookupNS float64 `json:"cached_lookup_ns"`

	Backends []backendResult `json:"backends"`
}

func main() {
	backends := flag.String("backends", strings.Join(store.Backends(), ","), "comma-separated index backends to storm")
	keys := flag.Int("keys", 5000, "subscriber profiles loaded into the registry")
	lookups := flag.Int("lookups", 200000, "random point lookups per backend")
	cdrs := flag.Int("cdrs", 50000, "CDR appends per backend")
	fsync := flag.Duration("fsync", 2*time.Millisecond, "WAL group-commit window")
	seed := flag.Int64("seed", 1, "workload seed")
	dir := flag.String("dir", "", "store root directory (empty: a temp dir, removed afterwards)")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	check := flag.Bool("check", true, "exit nonzero when a durability gate fails")
	flag.Parse()

	reg := telemetry.Enable()

	root := *dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "storestorm-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(root)
	}

	fail := func(format string, args ...any) { storm.FailGate("storestorm", format, args...) }

	res := result{
		Date:    time.Now().Format("2006-01-02"),
		Keys:    *keys,
		Lookups: *lookups,
		CDRs:    *cdrs,
		FsyncMS: float64(*fsync) / float64(time.Millisecond),
		Seed:    *seed,
	}
	names := make([]string, *keys)
	for i := range names {
		names[i] = fmt.Sprintf("sub-%06d", i)
	}

	// The production hot path, once: cached lookups over the default
	// backend.
	{
		st, err := store.Open(filepath.Join(root, "cached"), store.Options{FsyncInterval: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
		for _, n := range names {
			st.PutProfile(store.Profile{Name: n, Features: []string{"cf"}})
		}
		rng := rand.New(rand.NewSource(*seed))
		start := time.Now()
		for i := 0; i < *lookups; i++ {
			if _, ok := st.Lookup(names[rng.Intn(len(names))]); !ok {
				fail("cached lookup missed a loaded profile")
			}
		}
		res.CachedLookupNS = float64(time.Since(start)) / float64(*lookups)
		st.Close()
	}

	for _, kind := range strings.Split(*backends, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		br := backendResult{Backend: kind}
		bdir := filepath.Join(root, kind)
		snapBefore := reg.Snapshot()

		st, err := store.Open(bdir, store.Options{Backend: kind, NoCache: true, FsyncInterval: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}

		// Load the registry.
		start := time.Now()
		for _, n := range names {
			if err := st.PutProfile(store.Profile{Name: n, Features: []string{"cf", "prepaid"}}); err != nil {
				fmt.Fprintln(os.Stderr, "storestorm:", err)
				os.Exit(1)
			}
		}
		br.LoadMS = float64(time.Since(start)) / float64(time.Millisecond)

		// Workload 1: OLTP-ish random point lookups against the index.
		rng := rand.New(rand.NewSource(*seed))
		start = time.Now()
		for i := 0; i < *lookups; i++ {
			if _, ok := st.Lookup(names[rng.Intn(len(names))]); !ok && *check {
				fail("%s: lookup missed a loaded profile", kind)
			}
		}
		el := time.Since(start)
		br.LookupNS = float64(el) / float64(*lookups)
		br.LookupQP = float64(*lookups) / el.Seconds()

		// Workload 2: the CDR append flood, closed by one durability
		// barrier so the rate includes amortized group-commit cost.
		start = time.Now()
		for i := 0; i < *cdrs; i++ {
			if _, ok := st.AppendCDR(store.CDR{
				Local: "dev0", Peer: names[i%len(names)], Channel: "c",
				SetupNS: int64(i), TornNS: int64(i + 1),
			}); !ok {
				fail("%s: CDR append refused", kind)
			}
		}
		if err := st.Sync(); err != nil {
			fail("%s: sync: %v", kind, err)
		}
		el = time.Since(start)
		br.AppendNS = float64(el) / float64(*cdrs)
		br.AppendQP = float64(*cdrs) / el.Seconds()
		br.DurableCDRs = st.DurableCDRs()

		snapAfter := reg.Snapshot()
		br.WALFsyncs = int64(snapAfter.Counters[store.MetricWALFsyncs] - snapBefore.Counters[store.MetricWALFsyncs])
		br.WALBytes = int64(snapAfter.Counters[store.MetricWALBytes] - snapBefore.Counters[store.MetricWALBytes])

		// Crash and time the recovery replay.
		st.Crash()
		start = time.Now()
		st2, err := store.Open(bdir, store.Options{Backend: kind, NoCache: true, FsyncInterval: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
		br.RecoveryMS = float64(time.Since(start)) / float64(time.Millisecond)
		rs := st2.Recovery()
		br.Recovered = rs.Records
		br.TruncatedB = rs.Truncated

		if *check {
			// No acknowledged append may be lost, and recovery must land
			// exactly on the durable count.
			if got := uint64(st2.CDRCount()); got != br.DurableCDRs {
				fail("%s: recovered %d CDRs, %d were acknowledged durable", kind, got, br.DurableCDRs)
			}
			if st2.Profiles() != *keys {
				fail("%s: recovered %d profiles, loaded %d", kind, st2.Profiles(), *keys)
			}
			rng := rand.New(rand.NewSource(*seed + 1))
			for i := 0; i < 1000; i++ {
				if _, ok := st2.Lookup(names[rng.Intn(len(names))]); !ok {
					fail("%s: post-recovery lookup missed", kind)
				}
			}
		}
		st2.Close()

		fmt.Fprintf(os.Stderr, "storestorm: %-5s lookups %.0f ns/op (%.0f/s)  appends %.0f ns/op (%.0f/s)  %d fsyncs for %d records  recovery %.1f ms (%d records)\n",
			kind, br.LookupNS, br.LookupQP, br.AppendNS, br.AppendQP, br.WALFsyncs, br.DurableCDRs, br.RecoveryMS, br.Recovered)
		res.Backends = append(res.Backends, br)
	}

	if _, err := storm.WriteReport(res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "storestorm:", err)
		os.Exit(1)
	}
}
