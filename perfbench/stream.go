package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hybriddb/internal/workload"
)

// DefaultSeed is the workload seed when --seed is not given. It is
// DefaultCH's own data seed, and the committed ch_olap result
// checksums (olap_checksums.txt) were taken with it.
const DefaultSeed = 21

// chConfig is DefaultCH with the data generator reseeded.
func chConfig(seed int64) workload.CHConfig {
	cfg := workload.DefaultCH()
	cfg.Seed = seed
	return cfg
}

// Transaction kinds, in workload.CHTransactions order.
const (
	newOrder = iota
	payment
	orderStatus
	delivery
	stockLevel
)

// mixWeights is the TPC-C mix in percent per transaction kind: NewOrder
// 45, Payment 43, OrderStatus, Delivery and StockLevel 4 each.
var mixWeights = [...]int{45, 43, 4, 4, 4}

// mixPeriod is the length of one round of the mix: every run of
// mixPeriod transactions starting at a multiple of it holds exactly
// mixWeights of each kind.
const mixPeriod = 100

// txn is one generated transaction: its kind and statement texts.
type txn struct {
	Kind  int
	Name  string
	Stmts []string
}

// txnStream generates the seeded TPC-C statement stream. Kinds follow a
// smooth weighted round-robin over mixWeights, so every prefix of the
// stream holds the mix to within one transaction per kind; a random
// draw per transaction would let a 20-transaction window of the served
// workload swing its NewOrder share by a quarter. The seed drives every
// key and item the statements name.
type txnStream struct {
	rng    *rand.Rand
	cfg    workload.CHConfig
	gens   []workload.CHTxn
	credit [len(mixWeights)]int
}

func newTxnStream(seed int64) *txnStream {
	s := &txnStream{
		rng:  rand.New(rand.NewSource(seed ^ 0x5eed)),
		cfg:  chConfig(seed),
		gens: workload.CHTransactions(),
	}
	return s
}

func (s *txnStream) nextKind() int {
	total, best := 0, 0
	for i, w := range mixWeights {
		s.credit[i] += w
		total += w
		if s.credit[i] > s.credit[best] {
			best = i
		}
	}
	s.credit[best] -= total
	return best
}

func (s *txnStream) next() txn {
	k := s.nextKind()
	g := s.gens[k]
	return txn{Kind: k, Name: g.Name, Stmts: g.Gen(s.rng, s.cfg)}
}

// chQueries are the 22 analytic queries, Q01..Q22.
var chQueries = workload.CHQueries()

func queryName(i int) string { return fmt.Sprintf("Q%02d", i+1) }

// stmtKind classifies a generated statement by its leading keyword.
func stmtKind(q string) string {
	if i := strings.IndexByte(q, ' '); i > 0 {
		return strings.ToUpper(q[:i])
	}
	return strings.ToUpper(q)
}

// dmlTable is the table an INSERT or DELETE statement writes.
func dmlTable(q string) string {
	f := strings.Fields(q)
	for i, w := range f {
		if (strings.EqualFold(w, "INTO") || strings.EqualFold(w, "FROM")) && i+1 < len(f) {
			return f[i+1]
		}
	}
	return ""
}
