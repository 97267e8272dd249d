package server

import (
	"sync"
	"time"

	"repro/internal/query"
)

// cursorState is everything the server remembers about a client's open
// query cursor between fetches: its live operator pipeline (every served
// scan is a query.Spec, and a composed stream has no single resume key
// to re-seek from) and its lease. The operator contract makes an idle
// cursor harmless — an idle operator holds no latch — but it does pin
// heap (and, for a parallel scan, parked goroutines), so every path
// that drops the table entry must also Close the operator. Close runs
// outside the table mutex: it may wait on goroutines that are mid-fill
// inside the engine.
type cursorState struct {
	sess    uint64
	expires time.Time
	busy    bool           // checked out by a fetch; janitor must not reap
	op      query.Operator // live pipeline
	// carry is an encoded row the previous fetch pulled from op but
	// could not fit in its frame: the next fetch sends it first.
	carry []byte
}

// cursorTable owns every open server-side cursor. Its mutex is a leaf,
// held only for map bookkeeping — never across a DB call (fetches check
// a cursor out, scan with no table lock held, and check it back in) and
// never across an operator Close.
type cursorTable struct {
	mu        sync.Mutex //tsb:latch level=7 name=server-cursors
	next      uint64
	open      map[uint64]*cursorState
	reclaimed uint64
}

func (t *cursorTable) init() {
	t.open = make(map[uint64]*cursorState)
}

func (t *cursorTable) add(cu *cursorState) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.open[id] = cu
	return id
}

// checkout hands the cursor to a fetch if it exists, belongs to sess,
// and is not already checked out. The lease renews immediately so the
// janitor cannot reap a cursor whose fetch is running long.
func (t *cursorTable) checkout(id, sess uint64, renewTo time.Time) (*cursorState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cu, found := t.open[id]
	if !found || cu.sess != sess || cu.busy {
		return nil, false
	}
	cu.busy = true
	cu.expires = renewTo
	return cu, true
}

// checkin returns the cursor after a fetch; done removes it. The caller
// owns closing cu.op on done — it already holds the operator via
// checkout.
func (t *cursorTable) checkin(id uint64, cu *cursorState, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cu.busy = false
	if done {
		delete(t.open, id)
	}
}

// remove closes a cursor if it exists and belongs to sess.
func (t *cursorTable) remove(id, sess uint64) bool {
	t.mu.Lock()
	cu, found := t.open[id]
	if !found || cu.sess != sess {
		t.mu.Unlock()
		return false
	}
	delete(t.open, id)
	t.mu.Unlock()
	closeOp(cu)
	return true
}

// removeSession reaps every cursor a closing session left behind.
func (t *cursorTable) removeSession(sess uint64) {
	t.mu.Lock()
	var dropped []*cursorState
	for id, cu := range t.open {
		if cu.sess == sess {
			delete(t.open, id)
			dropped = append(dropped, cu)
		}
	}
	t.mu.Unlock()
	for _, cu := range dropped {
		closeOp(cu)
	}
}

// reapExpired removes cursors whose lease lapsed — the abandoned-scan
// backstop. In-flight fetches (busy) are skipped; their checkout
// already renewed the lease.
func (t *cursorTable) reapExpired(now time.Time) {
	t.mu.Lock()
	var dropped []*cursorState
	for id, cu := range t.open {
		if !cu.busy && now.After(cu.expires) {
			delete(t.open, id)
			t.reclaimed++
			dropped = append(dropped, cu)
		}
	}
	t.mu.Unlock()
	for _, cu := range dropped {
		closeOp(cu)
	}
}

func (t *cursorTable) counts() (open int, reclaimed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open), t.reclaimed
}

func (t *cursorTable) clear() {
	t.mu.Lock()
	var dropped []*cursorState
	for _, cu := range t.open {
		dropped = append(dropped, cu)
	}
	clear(t.open)
	t.mu.Unlock()
	for _, cu := range dropped {
		closeOp(cu)
	}
}

// closeOp releases a cursor's pipeline once. Never called with the
// table mutex held.
func closeOp(cu *cursorState) {
	if cu.op != nil {
		_ = cu.op.Close()
		cu.op = nil
	}
}
