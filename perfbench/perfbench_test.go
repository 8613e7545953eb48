package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite olap_checksums.txt from a one-worker pass on the DefaultSeed database")

// streamText renders the first n transactions of a seed's stream.
func streamText(seed int64, n int) string {
	var b strings.Builder
	s := newTxnStream(seed)
	for i := 0; i < n; i++ {
		tx := s.next()
		fmt.Fprintf(&b, "-- %s\n", tx.Name)
		for _, q := range tx.Stmts {
			b.WriteString(q)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestStreamIsSeeded(t *testing.T) {
	a, b := streamText(DefaultSeed, 500), streamText(DefaultSeed, 500)
	if a != b {
		t.Fatal("the same seed produced two different statement streams")
	}
	if c := streamText(DefaultSeed+1, 500); c == a {
		t.Fatal("a different seed produced the same statement stream")
	}
}

func TestStreamHoldsMix(t *testing.T) {
	for _, seed := range []int64{1, DefaultSeed, 977} {
		s := newTxnStream(seed)
		var got [len(mixWeights)]int
		for n := 1; n <= 3*mixPeriod; n++ {
			got[s.next().Kind]++
			for k, w := range mixWeights {
				want := float64(n*w) / mixPeriod
				if d := float64(got[k]) - want; d > 1 || d < -1 || (n%mixPeriod == 0 && d != 0) {
					t.Fatalf("seed %d: after %d transactions kind %d ran %d times, want %.2f", seed, n, k, got[k], want)
				}
			}
		}
	}
}

func TestDMLTargets(t *testing.T) {
	for q, want := range map[string]string{
		"INSERT INTO orderline VALUES (1, 2)":                          "orderline",
		"DELETE TOP 1 FROM neworder WHERE no_w_id = 1 AND no_d_id = 2": "neworder",
	} {
		if got := dmlTable(q); got != want {
			t.Errorf("dmlTable(%q) = %q, want %q", q, got, want)
		}
	}
}

// TestOLAPChecksums checks the committed ch_olap checksums against a
// one-worker pass on the DefaultSeed database.
func TestOLAPChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CH database")
	}
	db, err := loadCH(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := serialChecksums(db)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		var b strings.Builder
		for i, c := range got {
			fmt.Fprintf(&b, "%s %s\n", queryName(i), c)
		}
		if err := os.WriteFile("olap_checksums.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := committedChecksums()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: checksum %s, committed %s", queryName(i), got[i], want[i])
		}
	}
}
