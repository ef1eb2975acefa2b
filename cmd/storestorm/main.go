// storestorm benchmarks the durable store under the two workloads the
// live runtime generates: point lookups (every path setup consults the
// subscriber registry) and write-heavy CDR appends (every teardown cuts
// a record). One pass loads the registry, hammers random lookups,
// appends a CDR flood, then crashes the store and times the WAL
// recovery; the numbers land in BENCH_store.json.
//
// The run is also a gate (-check): every lookup must hit, no
// acknowledged CDR append may be lost across the crash, recovery must
// land on exactly the durable record count and the loaded profile
// count, and lookups after recovery must hit.
//
// Usage:
//
//	storestorm [-keys 5000] [-lookups 200000] [-cdrs 50000] [-fsync 2ms]
//	           [-seed 1] [-dir DIR] [-out BENCH_store.json] [-check]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ipmedia/internal/store"
	"ipmedia/internal/storm"
	"ipmedia/internal/telemetry"
)

type result struct {
	Date       string `json:"date"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Keys    int     `json:"keys"`
	Lookups int     `json:"lookups"`
	CDRs    int     `json:"cdrs"`
	FsyncMS float64 `json:"fsync_ms"`
	Seed    int64   `json:"seed"`

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

func main() {
	keys := flag.Int("keys", 5000, "subscriber profiles loaded into the registry")
	lookups := flag.Int("lookups", 200000, "random point lookups")
	cdrs := flag.Int("cdrs", 50000, "CDR appends")
	fsync := flag.Duration("fsync", 2*time.Millisecond, "WAL group-commit window")
	seed := flag.Int64("seed", 1, "workload seed")
	dir := flag.String("dir", "", "store directory (empty: a temp dir, removed afterwards)")
	out := flag.String("out", "", "write the result JSON here (empty: stdout only)")
	check := flag.Bool("check", true, "exit nonzero when a durability gate fails")
	flag.Parse()

	reg := telemetry.Enable()

	sdir := *dir
	if sdir == "" {
		var err error
		sdir, err = os.MkdirTemp("", "storestorm-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(sdir)
	}

	fail := func(format string, args ...any) {
		if *check {
			storm.FailGate("storestorm", format, args...)
		}
	}
	open := func() *store.Store {
		st, err := store.Open(sdir, store.Options{FsyncInterval: *fsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
		return st
	}

	res := result{
		Date:       time.Now().Format("2006-01-02"),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Keys:       *keys,
		Lookups:    *lookups,
		CDRs:       *cdrs,
		FsyncMS:    float64(*fsync) / float64(time.Millisecond),
		Seed:       *seed,
	}
	names := make([]string, *keys)
	for i := range names {
		names[i] = fmt.Sprintf("sub-%06d", i)
	}
	snapBefore := reg.Snapshot()
	st := open()

	// Load the registry.
	start := time.Now()
	for _, n := range names {
		if err := st.PutProfile(store.Profile{Name: n, Features: []string{"cf", "prepaid"}}); err != nil {
			fmt.Fprintln(os.Stderr, "storestorm:", err)
			os.Exit(1)
		}
	}
	res.LoadMS = float64(time.Since(start)) / float64(time.Millisecond)

	// Workload 1: random point lookups, the setup hot path.
	rng := rand.New(rand.NewSource(*seed))
	start = time.Now()
	for i := 0; i < *lookups; i++ {
		if _, ok := st.Lookup(names[rng.Intn(len(names))]); !ok {
			fail("lookup missed a loaded profile")
		}
	}
	el := time.Since(start)
	res.LookupNS = float64(el) / float64(*lookups)
	res.LookupQP = float64(*lookups) / el.Seconds()

	// Workload 2: the CDR append flood, closed by one durability
	// barrier so the rate includes amortized group-commit cost.
	start = time.Now()
	for i := 0; i < *cdrs; i++ {
		if _, ok := st.AppendCDR(store.CDR{
			Local: "dev0", Peer: names[i%len(names)], Channel: "c",
			SetupNS: int64(i), TornNS: int64(i + 1),
		}); !ok {
			fail("CDR append refused")
		}
	}
	if err := st.Sync(); err != nil {
		fail("sync: %v", err)
	}
	el = time.Since(start)
	res.AppendNS = float64(el) / float64(*cdrs)
	res.AppendQP = float64(*cdrs) / el.Seconds()
	res.DurableCDRs = st.DurableCDRs()

	snapAfter := reg.Snapshot()
	res.WALFsyncs = int64(snapAfter.Counters[store.MetricWALFsyncs] - snapBefore.Counters[store.MetricWALFsyncs])
	res.WALBytes = int64(snapAfter.Counters[store.MetricWALBytes] - snapBefore.Counters[store.MetricWALBytes])

	// Crash and time the recovery replay.
	st.Crash()
	start = time.Now()
	st2 := open()
	res.RecoveryMS = float64(time.Since(start)) / float64(time.Millisecond)
	rs := st2.Recovery()
	res.Recovered = rs.Records
	res.TruncatedB = rs.Truncated

	// No acknowledged append may be lost, and recovery must land
	// exactly on the durable count.
	if got := uint64(st2.CDRCount()); got != res.DurableCDRs {
		fail("recovered %d CDRs, %d were acknowledged durable", got, res.DurableCDRs)
	}
	if st2.Profiles() != *keys {
		fail("recovered %d profiles, loaded %d", st2.Profiles(), *keys)
	}
	rng = rand.New(rand.NewSource(*seed + 1))
	for i := 0; i < 1000; i++ {
		if _, ok := st2.Lookup(names[rng.Intn(len(names))]); !ok {
			fail("post-recovery lookup missed")
		}
	}
	st2.Close()

	fmt.Fprintf(os.Stderr, "storestorm: lookups %.0f ns/op (%.0f/s)  appends %.0f ns/op (%.0f/s)  %d fsyncs for %d records  recovery %.1f ms (%d records)\n",
		res.LookupNS, res.LookupQP, res.AppendNS, res.AppendQP, res.WALFsyncs, res.DurableCDRs, res.RecoveryMS, res.Recovered)

	if _, err := storm.WriteReport(res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "storestorm:", err)
		os.Exit(1)
	}
}
