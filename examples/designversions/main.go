// Design versions: multiple version histories in engineering design —
// another application the paper's introduction names. Each part's design
// record evolves through revisions; a secondary TSB-tree index on the
// part's status answers temporal queries like "which parts were in review
// at the end of Q1?" using only the secondary index (§3.6).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// A design record's value is "status|payload".
func status(v []byte) record.Key {
	i := bytes.IndexByte(v, '|')
	if i < 0 {
		return nil
	}
	return record.Key(v[:i])
}

func part(i int) record.Key { return record.StringKey(fmt.Sprintf("part%03d", i)) }

var statuses = []string{"draft", "review", "approved", "released"}

func main() {
	d, err := db.Open(db.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.CreateSecondary("status", status); err != nil {
		log.Fatal(err)
	}

	const nParts = 60
	rng := rand.New(rand.NewSource(5))
	stage := make([]int, nParts)

	// Every part starts as a draft.
	for i := 0; i < nParts; i++ {
		i := i
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(part(i), []byte("draft|rev0"))
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Revisions move parts through the workflow; some bounce back to
	// draft (rework), all history retained.
	var q1 record.Timestamp
	for rev := 1; rev <= 600; rev++ {
		p := rng.Intn(nParts)
		if rng.Intn(5) == 0 {
			stage[p] = 0 // rework
		} else if stage[p] < len(statuses)-1 {
			stage[p]++
		}
		val := fmt.Sprintf("%s|rev%d", statuses[stage[p]], rev)
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(part(p), []byte(val))
		}); err != nil {
			log.Fatal(err)
		}
		if rev == 200 {
			q1 = d.Now()
		}
	}

	// Temporal secondary queries, answered from the status index alone.
	fmt.Println("parts per status, end of Q1 vs now:")
	for _, s := range statuses {
		atQ1, err := d.CountSecondary("status", record.StringKey(s), q1)
		if err != nil {
			log.Fatal(err)
		}
		now, err := d.CountSecondary("status", record.StringKey(s), d.Now())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s q1=%-3d now=%-3d\n", s, atQ1, now)
	}

	// Fetch records currently in review: the secondary lookup yields the
	// primary keys, and the join over a plain scan reads each one with
	// its own point cursor, so showing three examples reads three
	// records' pages, not the whole primary index.
	total, err := d.CountSecondary("status", record.StringKey("review"), d.Now())
	if err != nil {
		log.Fatal(err)
	}
	inReview, err := d.Query(query.Scan(nil, record.InfiniteBound()).
		JoinSecondary("status", record.StringKey("review"), 0).
		WithLimit(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d parts in review now; e.g.:\n", total)
	for inReview.Next() {
		v := inReview.Row().Versions[0]
		fmt.Printf("  %s = %s\n", v.Key, v.Value)
	}
	if err := inReview.Err(); err != nil {
		log.Fatal(err)
	}
	if err := inReview.Close(); err != nil {
		log.Fatal(err)
	}
	if total > 3 {
		fmt.Println("  ...")
	}

	// When did part007 enter and leave "review"? The secondary index
	// keeps that history too.
	h, err := d.History(part(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npart007 went through %d revisions; full lineage retained\n", len(h))

	if err := d.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("primary and secondary index invariants: OK")
}
