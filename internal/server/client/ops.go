package client

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/server/wire"
)

// --- async API: returns a Call immediately, response read on wait ---

// PutAsync pipelines a single-key put. Wait with Call.Time or Call.Err.
func (c *Client) PutAsync(k record.Key, v []byte) (*Call, error) {
	e := record.NewEncoder(make([]byte, 0, len(k)+len(v)+8))
	e.Byte(wire.OpPut)
	e.Key(k)
	e.Blob(v)
	return c.send(e.Bytes())
}

// DeleteAsync pipelines a single-key delete.
func (c *Client) DeleteAsync(k record.Key) (*Call, error) {
	e := record.NewEncoder(make([]byte, 0, len(k)+4))
	e.Byte(wire.OpDelete)
	e.Key(k)
	return c.send(e.Bytes())
}

// GetAsync pipelines a read at the session snapshot (at 0) or a caller
// timestamp. Wait with Call.Value.
func (c *Client) GetAsync(k record.Key, at record.Timestamp) (*Call, error) {
	e := record.NewEncoder(make([]byte, 0, len(k)+8))
	e.Byte(wire.OpGet)
	e.Key(k)
	e.Time(at)
	return c.send(e.Bytes())
}

// CommitAsync pipelines an atomic multi-op transaction.
func (c *Client) CommitAsync(ops []wire.CommitOp) (*Call, error) {
	return c.send(wire.AppendCommit(nil, ops))
}

// Time waits for a commit-class response (Put/Delete/Commit/Refresh/
// Ping) and returns its timestamp.
func (cl *Call) Time() (record.Timestamp, error) {
	body, err := cl.c.wait(cl)
	if err != nil {
		return 0, err
	}
	d := record.NewDecoder(body)
	t := d.Time()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("client: short reply: %w", err)
	}
	return t, nil
}

// Value waits for a Get response.
func (cl *Call) Value() (record.Version, bool, error) {
	body, err := cl.c.wait(cl)
	if err != nil {
		return record.Version{}, false, err
	}
	d := record.NewDecoder(body)
	if !d.Bool() {
		if err := d.Err(); err != nil {
			return record.Version{}, false, fmt.Errorf("client: short reply: %w", err)
		}
		return record.Version{}, false, nil
	}
	v := d.Version()
	if err := d.Err(); err != nil {
		return record.Version{}, false, fmt.Errorf("client: short reply: %w", err)
	}
	return v, true, nil
}

// --- sync API ---

// Put writes one key and returns its commit timestamp.
func (c *Client) Put(k record.Key, v []byte) (record.Timestamp, error) {
	call, err := c.PutAsync(k, v)
	if err != nil {
		return 0, err
	}
	return call.Time()
}

// Delete tombstones one key and returns its commit timestamp.
func (c *Client) Delete(k record.Key) (record.Timestamp, error) {
	call, err := c.DeleteAsync(k)
	if err != nil {
		return 0, err
	}
	return call.Time()
}

// Get reads one key at the session snapshot.
func (c *Client) Get(k record.Key) (record.Version, bool, error) {
	return c.GetAt(k, 0)
}

// GetAt reads one key as of at (0 = the session snapshot).
func (c *Client) GetAt(k record.Key, at record.Timestamp) (record.Version, bool, error) {
	call, err := c.GetAsync(k, at)
	if err != nil {
		return record.Version{}, false, err
	}
	return call.Value()
}

// Commit applies ops as one atomic transaction and returns its commit
// timestamp: every op is visible from that time, or none are.
func (c *Client) Commit(ops []wire.CommitOp) (record.Timestamp, error) {
	call, err := c.CommitAsync(ops)
	if err != nil {
		return 0, err
	}
	return call.Time()
}

// Refresh re-pins the session snapshot to the server's current commit
// clock and returns it.
func (c *Client) Refresh() (record.Timestamp, error) {
	call, err := c.send([]byte{wire.OpRefresh})
	if err != nil {
		return 0, err
	}
	t, err := call.Time()
	if err != nil {
		return 0, err
	}
	c.sessionAt = t
	return t, nil
}

// Ping round-trips and returns the server's commit clock.
func (c *Client) Ping() (record.Timestamp, error) {
	call, err := c.send([]byte{wire.OpPing})
	if err != nil {
		return 0, err
	}
	return call.Time()
}

// Stats fetches the server's observability counters.
func (c *Client) Stats() (wire.StatsReply, error) {
	call, err := c.send([]byte{wire.OpStats})
	if err != nil {
		return wire.StatsReply{}, err
	}
	body, err := c.wait(call)
	if err != nil {
		return wire.StatsReply{}, err
	}
	return wire.DecodeStatsReply(record.NewDecoder(body))
}
