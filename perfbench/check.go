package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"hybriddb"
	"hybriddb/internal/value"
)

// olapChecksums holds "Qnn <checksum>" lines: the 22 query results on
// the DefaultSeed database. TestOLAPChecksums regenerates it with
// -update.
//
//go:embed olap_checksums.txt
var olapChecksums string

// checksum digests a result in row order: kind and exact text of every
// value.
func checksum(rows []value.Row) string {
	h := sha256.New()
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(h, "%d:%s\x00", v.Kind(), v.String())
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

func committedChecksums() ([]string, error) {
	byName := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(olapChecksums))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			byName[f[0]] = f[1]
		}
	}
	ref := make([]string, len(chQueries))
	for i := range chQueries {
		if ref[i] = byName[queryName(i)]; ref[i] == "" {
			return nil, fmt.Errorf("olap_checksums.txt lacks %s", queryName(i))
		}
	}
	return ref, nil
}

// serialChecksums runs the 22 queries once at one worker and digests
// each result: the reference for seeds without committed checksums.
func serialChecksums(db *hybriddb.DB) ([]string, error) {
	ref := make([]string, len(chQueries))
	for i, q := range chQueries {
		res, err := db.Exec(q, hybriddb.ExecOptions{Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("%s at one worker: %w", queryName(i), err)
		}
		ref[i] = checksum(res.Rows)
	}
	return ref, nil
}

// olapReference is the expected checksum of each query's result.
func olapReference(db *hybriddb.DB, seed int64) ([]string, error) {
	if seed == DefaultSeed {
		return committedChecksums()
	}
	return serialChecksums(db)
}

// ledgerTables are the tables whose row counts the transactions change.
var ledgerTables = []string{"oorder", "orderline", "neworder", "history"}

func tableCounts(r runner) (map[string]int64, error) {
	out := map[string]int64{}
	for _, t := range ledgerTables {
		res, err := r.stmt("SELECT count(*) FROM "+t, 0)
		if err != nil {
			return nil, fmt.Errorf("count %s: %w", t, err)
		}
		if len(res.rows) != 1 || len(res.rows[0]) != 1 {
			return nil, fmt.Errorf("count %s: malformed result", t)
		}
		out[t] = res.rows[0][0].Int()
	}
	return out, nil
}

// checkTPCC checks the TPC-C consistency conditions the stream keeps:
// per warehouse, w_ytd equals the sum of its districts' d_ytd (Payment
// adds the same amount to both), and each ledger table holds its
// initial rows plus what committed transactions inserted minus what
// they deleted. Each condition checked counts as one operation.
func checkTPCC(r runner, initial map[string]int64, led *ledger, t *tally) error {
	counts, err := tableCounts(r)
	if err != nil {
		return err
	}
	for _, tbl := range ledgerTables {
		t.attempted++
		want := initial[tbl] + led.inserted[tbl] - led.deleted[tbl]
		if counts[tbl] != want {
			t.fail("%s holds %d rows, want %d (initial %d + inserted %d - deleted %d)",
				tbl, counts[tbl], want, initial[tbl], led.inserted[tbl], led.deleted[tbl])
		}
	}
	wh, err := r.stmt("SELECT w_id, w_ytd FROM warehouse", 0)
	if err != nil {
		return fmt.Errorf("read warehouse: %w", err)
	}
	dist, err := r.stmt("SELECT d_w_id, sum(d_ytd) FROM district GROUP BY d_w_id", 0)
	if err != nil {
		return fmt.Errorf("read district: %w", err)
	}
	dsum := map[int64]float64{}
	for _, row := range dist.rows {
		dsum[row[0].Int()] = row[1].Float()
	}
	if len(wh.rows) == 0 {
		t.attempted++
		t.fail("warehouse is empty")
	}
	for _, row := range wh.rows {
		t.attempted++
		w, ytd := row[0].Int(), row[1].Float()
		if d, ok := dsum[w]; !ok || math.Abs(d-ytd) > 1e-6 {
			t.fail("warehouse %d: w_ytd %.2f != sum(d_ytd) %.2f", w, ytd, d)
		}
	}
	return nil
}

// tableDigests digests every table's rows independently of row order:
// the row count and the sum of per-row FNV-1a hashes.
func tableDigests(db *hybriddb.DB) (map[string]string, error) {
	var names []string
	for n := range db.Internal().Tables() {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]string{}
	for _, n := range names {
		res, err := db.Exec("SELECT * FROM " + n)
		if err != nil {
			return nil, fmt.Errorf("scan %s: %w", n, err)
		}
		var total uint64
		for _, row := range res.Rows {
			h := fnv.New64a()
			for _, v := range row {
				fmt.Fprintf(h, "%d:%s\x00", v.Kind(), v.String())
			}
			total += h.Sum64()
		}
		out[n] = fmt.Sprintf("%d:%016x", len(res.Rows), total)
	}
	return out, nil
}
