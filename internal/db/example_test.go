package db_test

import (
	"fmt"
	"log"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/txn"
)

// Example demonstrates the complete query surface of the multiversion
// database: current reads, rollback reads, history, and temporal diffs.
func Example() {
	d, err := db.Open(db.Config{})
	if err != nil {
		log.Fatal(err)
	}
	acct := record.StringKey("acct")
	for _, balance := range []string{"100", "120", "90"} {
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(acct, []byte(balance))
		}); err != nil {
			log.Fatal(err)
		}
	}

	v, _, _ := d.Get(acct)
	fmt.Printf("current: %s\n", v.Value)

	v, _, _ = d.GetAsOf(acct, 2)
	fmt.Printf("as of t=2: %s\n", v.Value)

	hist, _ := d.History(acct)
	fmt.Printf("versions: %d\n", len(hist))

	diff, _ := d.Query(query.Diff(nil, record.InfiniteBound(), 1, 3))
	for diff.Next() {
		r := diff.Row() // [before, after]
		fmt.Printf("changed in (1,3]: %s %s -> %s\n", r.Key, r.Versions[0].Value, r.Versions[1].Value)
	}
	diff.Close()

	// Output:
	// current: 90
	// as of t=2: 120
	// versions: 3
	// changed in (1,3]: acct 100 -> 90
}

// Example_abort shows that an aborted transaction leaves no trace:
// uncommitted data never reaches the write-once historical database, so it
// can always be erased (§4 of the paper).
func Example_abort() {
	d, err := db.Open(db.Config{})
	if err != nil {
		log.Fatal(err)
	}
	k := record.StringKey("doc")
	d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("v1")) })

	tx := d.Begin()
	tx.Put(k, []byte("draft"))
	own, _, _ := tx.Get(k)
	fmt.Printf("inside txn: %s\n", own.Value)
	tx.Abort()

	v, _, _ := d.Get(k)
	hist, _ := d.History(k)
	fmt.Printf("after abort: %s (history %d)\n", v.Value, len(hist))

	// Output:
	// inside txn: draft
	// after abort: v1 (history 1)
}

// Example_readOnly shows the §4.1 lock-free read-only transaction: the
// reader's snapshot is pinned at initiation and is never blocked by (or
// exposed to) concurrent updaters.
func Example_readOnly() {
	d, err := db.Open(db.Config{})
	if err != nil {
		log.Fatal(err)
	}
	k := record.StringKey("row")
	d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("v1")) })

	reader := d.ReadOnly() // timestamp issued now

	// An updater commits afterwards; the reader does not see it.
	d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("v2")) })

	v, _, _ := reader.Get(k)
	fmt.Printf("reader at t=%v sees %s\n", reader.Timestamp(), v.Value)
	v, _, _ = d.Get(k)
	fmt.Printf("current is %s\n", v.Value)

	// Output:
	// reader at t=1 sees v1
	// current is v2
}
