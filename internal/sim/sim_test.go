package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func fixed(j *Job) func(*rand.Rand) *Job {
	return func(*rand.Rand) *Job { return j }
}

func TestSingleSerialJob(t *testing.T) {
	job := &Job{Name: "q", CPUWork: 10 * time.Millisecond, MaxDOP: 1, IsRead: true}
	res := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 1, Pick: fixed(job)}},
		Duration: 105 * time.Millisecond,
	})
	st := res.PerJob["q"]
	if st == nil || st.Count < 9 || st.Count > 11 {
		t.Fatalf("count = %+v", st)
	}
	mean := st.Mean()
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean = %v, want ~10ms", mean)
	}
}

func TestParallelJobUsesAllCores(t *testing.T) {
	job := &Job{Name: "p", CPUWork: 40 * time.Millisecond, MaxDOP: 4, IsRead: true}
	res := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 1, Pick: fixed(job)}},
		Duration: 100 * time.Millisecond,
	})
	mean := res.PerJob["p"].Mean()
	if mean < 9*time.Millisecond || mean > 12*time.Millisecond {
		t.Errorf("mean = %v, want ~10ms (40ms work / 4 cores)", mean)
	}
}

func TestProcessorSharingDegradation(t *testing.T) {
	// 8 concurrent parallel scans on 4 cores take ~8x the solo time.
	job := &Job{Name: "scan", CPUWork: 20 * time.Millisecond, MaxDOP: 4, IsRead: true}
	solo := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 1, Pick: fixed(job)}},
		Duration: 200 * time.Millisecond,
	}).PerJob["scan"].Mean()
	crowded := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 8, Pick: fixed(job)}},
		Duration: 400 * time.Millisecond,
	}).PerJob["scan"].Mean()
	ratio := float64(crowded) / float64(solo)
	if ratio < 6 || ratio > 10 {
		t.Errorf("degradation ratio = %.1f, want ~8", ratio)
	}
}

func TestSerialJobsCoexistUntilSaturation(t *testing.T) {
	// 4 serial jobs on 4 cores: no slowdown. 8 on 4: ~2x.
	job := &Job{Name: "s", CPUWork: 10 * time.Millisecond, MaxDOP: 1, IsRead: true}
	at4 := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 4, Pick: fixed(job)}},
		Duration: 200 * time.Millisecond,
	}).PerJob["s"].Mean()
	at8 := Run(Config{
		Pools:    []int{4},
		Groups:   []ClientGroup{{Count: 8, Pick: fixed(job)}},
		Duration: 200 * time.Millisecond,
	}).PerJob["s"].Mean()
	if at4 > 11*time.Millisecond {
		t.Errorf("4 serial jobs on 4 cores slowed down: %v", at4)
	}
	ratio := float64(at8) / float64(at4)
	if ratio < 1.7 || ratio > 2.4 {
		t.Errorf("8-on-4 ratio = %.2f, want ~2", ratio)
	}
}

func TestIOPhase(t *testing.T) {
	job := &Job{Name: "io", CPUWork: time.Millisecond, MaxDOP: 1, IOTime: 9 * time.Millisecond, IsRead: true}
	res := Run(Config{
		Pools:    []int{1},
		Groups:   []ClientGroup{{Count: 1, Pick: fixed(job)}},
		Duration: 100 * time.Millisecond,
	})
	mean := res.PerJob["io"].Mean()
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean = %v, want ~10ms", mean)
	}
}

func writerReaderConfig(iso Isolation, readerRows int64) Config {
	writer := &Job{
		Name: "w", CPUWork: 2 * time.Millisecond, MaxDOP: 1,
		Locks: []LockReq{{Table: "t", Exclusive: true, Rows: 10, TableRows: 10000}},
	}
	reader := &Job{
		Name: "r", CPUWork: 10 * time.Millisecond, MaxDOP: 2, IsRead: true,
		Locks: []LockReq{{Table: "t", Rows: readerRows, TableRows: 10000}},
	}
	return Config{
		Pools:     []int{8},
		Isolation: iso,
		Groups: []ClientGroup{
			{Count: 4, Pick: fixed(writer)},
			{Count: 2, Pick: fixed(reader)},
		},
		Duration: 500 * time.Millisecond,
		Seed:     7,
	}
}

func TestSerializableBlocksWriters(t *testing.T) {
	// SR readers hold S on the whole table until done; writers queue.
	rc := Run(writerReaderConfig(ReadCommitted, 10000))
	sr := Run(writerReaderConfig(Serializable, 10000))
	rcW, srW := rc.PerJob["w"].Mean(), sr.PerJob["w"].Mean()
	if srW < rcW*3 {
		t.Errorf("SR writer latency %v should far exceed RC %v", srW, rcW)
	}
}

func TestSnapshotReadersPayOverheadButDontBlock(t *testing.T) {
	si := Run(writerReaderConfig(Snapshot, 10000))
	sr := Run(writerReaderConfig(Serializable, 10000))
	// SI writers are unaffected by readers.
	if si.PerJob["w"].Mean() > 4*time.Millisecond {
		t.Errorf("SI writer latency = %v, want ~2-3ms", si.PerJob["w"].Mean())
	}
	// SI readers pay the version overhead: CPU 10ms -> 11.2ms minimum.
	if si.PerJob["r"].Mean() < 5600*time.Microsecond {
		t.Errorf("SI reader latency = %v suspiciously low", si.PerJob["r"].Mean())
	}
	_ = sr
}

func TestStatsHelpers(t *testing.T) {
	s := &JobStats{Count: 4, latencies: []time.Duration{4, 1, 3, 2}}
	if s.Median() != 2 {
		t.Errorf("median = %v", s.Median())
	}
	if s.Percentile(100) != 4 {
		t.Errorf("p100 = %v", s.Percentile(100))
	}
	if s.Mean() != 2 { // (1+2+3+4)/4 = 2.5 -> truncated 2ns
		t.Errorf("mean = %v", s.Mean())
	}
	var empty JobStats
	if empty.Mean() != 0 || empty.Percentile(50) != 0 {
		t.Error("empty stats")
	}
}

func TestWarmupExcluded(t *testing.T) {
	job := &Job{Name: "q", CPUWork: 10 * time.Millisecond, MaxDOP: 1, IsRead: true}
	res := Run(Config{
		Pools:    []int{1},
		Groups:   []ClientGroup{{Count: 1, Pick: fixed(job)}},
		Duration: 100 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
	})
	if res.PerJob["q"].Count > 6 {
		t.Errorf("warmup not excluded: %d", res.PerJob["q"].Count)
	}
}

func TestPoolIsolation(t *testing.T) {
	// Two pools: heavy load in pool 0 must not slow pool 1.
	heavy := &Job{Name: "h", CPUWork: 50 * time.Millisecond, MaxDOP: 4, IsRead: true}
	light := &Job{Name: "l", CPUWork: 5 * time.Millisecond, MaxDOP: 1, IsRead: true}
	res := Run(Config{
		Pools: []int{4, 2},
		Groups: []ClientGroup{
			{Count: 8, Pool: 0, Pick: fixed(heavy)},
			{Count: 1, Pool: 1, Pick: fixed(light)},
		},
		Duration: 400 * time.Millisecond,
	})
	if m := res.PerJob["l"].Mean(); m > 6*time.Millisecond {
		t.Errorf("isolated pool slowed: %v", m)
	}
}

// chLikeConfig is a CH-style mix on one shared pool: 19 TPC-C clients
// drawing weighted transactions that lock overlapping stripes, beside
// one parallel analytic reader — enough simultaneous completions and
// equal-cap ties to expose any iteration-order dependence.
func chLikeConfig() Config {
	newOrder := &Job{Name: "NewOrder", CPUWork: 900 * time.Microsecond, MaxDOP: 1,
		Locks: []LockReq{
			{Table: "stock", Exclusive: true, Rows: 10, TableRows: 100000},
			{Table: "orderline", Exclusive: true, Rows: 10, TableRows: 300000},
			{Table: "district", Exclusive: true, Rows: 1, TableRows: 10},
		}}
	payment := &Job{Name: "Payment", CPUWork: 400 * time.Microsecond, MaxDOP: 1,
		Locks: []LockReq{
			{Table: "customer", Exclusive: true, Rows: 1, TableRows: 30000},
			{Table: "district", Exclusive: true, Rows: 1, TableRows: 10},
		}}
	orderStatus := &Job{Name: "OrderStatus", CPUWork: 300 * time.Microsecond, MaxDOP: 1, IsRead: true,
		Locks: []LockReq{{Table: "orderline", Rows: 10, TableRows: 300000}}}
	query := &Job{Name: "Q1", CPUWork: 40 * time.Millisecond, MaxDOP: 8, IsRead: true,
		IOTime: time.Millisecond, Locks: []LockReq{{Table: "orderline", Rows: 300000, TableRows: 300000}}}
	return Config{
		Pools:     []int{8},
		Isolation: Snapshot,
		Groups: []ClientGroup{
			{Count: 19, Pick: func(rng *rand.Rand) *Job {
				switch r := rng.Intn(100); {
				case r < 45:
					return newOrder
				case r < 88:
					return payment
				default:
					return orderStatus
				}
			}},
			{Count: 1, Pick: fixed(query)},
		},
		Duration:        300 * time.Millisecond,
		Warmup:          20 * time.Millisecond,
		Seed:            11,
		StripesPerTable: 64,
	}
}

func TestRunDeterministic(t *testing.T) {
	want := Run(chLikeConfig())
	if want.Completed == 0 {
		t.Fatal("no statements completed")
	}
	for i := 0; i < 3; i++ {
		if got := Run(chLikeConfig()); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs: completed %d vs %d", i+2, got.Completed, want.Completed)
		}
	}
}
