// Banking: the paper's Figure-1 scenario at scale. Account balances are
// stepwise constant data in a rollback database: each transaction's
// transfers are stamped with its commit time, balances hold between
// transactions, and a statement for any past moment is a single as-of
// query. A full backup runs as a lock-free read-only transaction while
// transfers keep committing (§4.1).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
)

func acct(i int) record.Key { return record.StringKey(fmt.Sprintf("acct%03d", i)) }

func balance(d *db.DB, tx *txn.Txn, k record.Key) (int, error) {
	v, ok, err := tx.Get(k)
	if err != nil || !ok {
		return 0, err
	}
	return strconv.Atoi(string(v.Value))
}

func main() {
	d, err := db.Open(db.Config{})
	if err != nil {
		log.Fatal(err)
	}
	const nAccounts = 50
	const opening = 1000

	// Open the accounts.
	for i := 0; i < nAccounts; i++ {
		i := i
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(acct(i), []byte(strconv.Itoa(opening)))
		}); err != nil {
			log.Fatal(err)
		}
	}
	openingDay := d.Now()

	// Random transfers: each moves money between two accounts in one
	// transaction, so the total is invariant.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		from, to := rng.Intn(nAccounts), rng.Intn(nAccounts)
		if from == to {
			continue
		}
		amount := 1 + rng.Intn(100)
		err := d.Update(func(tx *txn.Txn) error {
			fb, err := balance(d, tx, acct(from))
			if err != nil {
				return err
			}
			tb, err := balance(d, tx, acct(to))
			if err != nil {
				return err
			}
			if err := tx.Put(acct(from), []byte(strconv.Itoa(fb-amount))); err != nil {
				return err
			}
			return tx.Put(acct(to), []byte(strconv.Itoa(tb+amount)))
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	midDay := d.Now()

	// Statement for account 7 at three moments.
	fmt.Println("account acct007 statement:")
	for _, at := range []record.Timestamp{openingDay, midDay, d.Now()} {
		v, ok, err := d.GetAsOf(acct(7), at)
		if err != nil || !ok {
			log.Fatalf("statement: %v %v", ok, err)
		}
		fmt.Printf("  as of t=%-5v balance=%s\n", at, v.Value)
	}

	// Audit: at every sampled moment the bank's total is conserved —
	// that is the stepwise-constant semantics doing its job.
	for _, at := range []record.Timestamp{openingDay, midDay, d.Now()} {
		vs, err := d.ReadAt(at).Scan(nil, record.InfiniteBound())
		if err != nil {
			log.Fatal(err)
		}
		total := 0
		for _, v := range vs {
			n, _ := strconv.Atoi(string(v.Value))
			total += n
		}
		if total != nAccounts*opening {
			log.Fatalf("audit failed at t=%v: total=%d", at, total)
		}
		fmt.Printf("audit at t=%-5v: %d accounts, total=%d OK\n", at, len(vs), total)
	}

	// Lock-free backup while an updater holds a lock on acct000.
	blocked := d.Begin()
	if err := blocked.Put(acct(0), []byte("999999")); err != nil {
		log.Fatal(err)
	}
	// The backup streams through a cursor — the unload path of §4.1:
	// the snapshot arrives account by account, one shard latch briefly
	// held per page, never the whole database materialized or latched.
	backup := d.ReadOnly()
	copied := 0
	bcur := backup.Cursor(nil, record.InfiniteBound(), db.ScanOptions{})
	for bcur.Next() {
		copied++ // a real backup would write bcur.Version() out here
	}
	if bcur.Err() != nil {
		log.Fatal(bcur.Err())
	}
	fmt.Printf("backup at t=%v streamed %d accounts without waiting for the updater\n",
		backup.Timestamp(), copied)
	if err := blocked.Abort(); err != nil {
		log.Fatal(err)
	}

	// The full history of a busy account is retained forever.
	h, err := d.History(acct(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acct007 has %d retained versions (non-deletion policy)\n", len(h))

	st := d.Stats()
	fmt.Printf("storage: %d magnetic pages, %d WORM sectors burned, %d versions migrated\n",
		st.Magnetic.PagesInUse, st.WORM.SectorsBurned, st.Tree.VersionsMigrated)
}
