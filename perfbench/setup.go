package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"hybriddb"
	"hybriddb/client/hybridsql"
	"hybriddb/internal/vclock"
	"hybriddb/internal/wire"
	"hybriddb/internal/workload"
)

// setupRounds is how many times an end-to-end run sets the system up;
// setup_s is the median round.
const setupRounds = 3

// csiTables carry the design's nonclustered columnstores, beside the
// clustered B+ tree primaries BuildCH creates.
var csiTables = []string{"orderline", "oorder", "stock"}

// loadCH builds the CH database with the benchmark's hybrid design and
// a warm buffer pool. BuildCH opens an unbounded pool, so every
// workload fits in memory.
func loadCH(seed int64) (*hybriddb.DB, error) {
	db := hybriddb.Wrap(workload.BuildCH(vclock.DefaultModel(vclock.DRAM), chConfig(seed)))
	for _, t := range csiTables {
		if _, err := db.Exec("CREATE NONCLUSTERED COLUMNSTORE INDEX csi_" + t + " ON " + t); err != nil {
			return nil, fmt.Errorf("columnstore on %s: %w", t, err)
		}
	}
	db.WarmCache()
	return db, nil
}

// timedSetups sets up rounds times, tears down every system but the
// last, and returns it with each round's wall time in seconds. It
// collects the rounds' garbage before returning, so the measured phase
// does not pay for it.
func timedSetups[T any](rounds int, setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var sys T
	var secs []float64
	for i := 0; i < rounds; i++ {
		if i > 0 {
			if err := teardown(sys); err != nil {
				return sys, nil, err
			}
			var zero T
			sys = zero
			runtime.GC()
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return sys, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		sys = s
	}
	runtime.GC()
	return sys, secs, nil
}

// served is the CH database behind a wire server on loopback, with
// hybridd's defaults (tuple mover and query store on, admission
// unbounded) and two client connections.
type served struct {
	db         *hybriddb.DB
	srv        *wire.Server
	done       chan error
	oltp, olap *hybridsql.Client
}

func serveCH(seed int64) (*served, error) {
	db, err := loadCH(seed)
	if err != nil {
		return nil, err
	}
	db.EnableQueryStore(hybriddb.QueryStoreOptions{})
	db.EnableTupleMover(hybriddb.MoverOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &served{db: db, srv: wire.NewServer(db.Internal(), wire.Options{}), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	cfg := hybridsql.Config{Addr: ln.Addr().String(), User: "oltp"}
	if s.oltp, err = hybridsql.Connect(cfg); err == nil {
		cfg.User = "olap"
		s.olap, err = hybridsql.Connect(cfg)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return s, nil
}

// close disconnects both clients, drains the server, waits for its
// accept loop to return and stops the tuple mover.
func (s *served) close() error {
	for _, c := range []*hybridsql.Client{s.oltp, s.olap} {
		if c != nil {
			c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	s.db.Close()
	return err
}
