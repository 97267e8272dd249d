// Package client is the Go client for tsbserve. It speaks the
// internal/server/wire protocol over one TCP connection and exposes
// both a synchronous API (Put/Get/Delete/Commit/QueryScan) and an
// asynchronous pipelined one: every operation has a *Async form that
// returns a Call immediately, and waiting on Calls in issue order gives
// the pipelining the protocol is built around — many requests in
// flight, responses matched FIFO, no correlation ids.
//
// A Client is safe for concurrent use. Send order defines response
// order; the shared window (Options.Window) bounds how many calls may
// be in flight before senders block.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/record"
	"repro/internal/server/wire"
)

// Options configures Dial. The zero value is usable: anonymous tenant,
// snapshot pinned at connect, window 32.
type Options struct {
	// Tenant namespaces every key this session touches. Sessions with
	// different tenants are fully disjoint.
	Tenant []byte
	// At pins the session read snapshot; 0 pins the server's commit
	// clock at connect. Refresh re-pins later.
	At record.Timestamp
	// Window bounds in-flight pipelined calls (default 32).
	Window int
	// MaxFrameBytes bounds response frames (default wire.DefaultMaxFrame);
	// it must match or exceed the server's.
	MaxFrameBytes int
	// DialTimeout bounds the TCP connect (default 10s).
	DialTimeout time.Duration
}

// ErrClosed is returned for calls issued after Close, and by calls
// whose connection died before their response arrived (wrapped with the
// cause).
var ErrClosed = errors.New("client: connection closed")

// Call is one in-flight pipelined operation: the reader populates the
// result and closes done, strictly in issue order.
type Call struct {
	c    *Client
	done chan struct{}
	err  error
	body []byte // OK response payload after the status byte
}

// Err waits for the response and returns the operation's error, typed
// *wire.Error when the server refused it (see wire.IsRetryable).
func (cl *Call) Err() error {
	_, err := cl.c.wait(cl)
	return err
}

// Client is one tsbserve session over one TCP connection.
type Client struct {
	nc  net.Conn
	opt Options

	// sendMu serializes queue admission + frame write, which keeps the
	// pending FIFO and the wire in the same order. It is held while
	// blocking for a window slot — safe, because the reader that frees
	// slots never takes it — but never while waiting for a response.
	sendMu  sync.Mutex
	bw      *bufio.Writer
	pending chan *Call
	dirty   bool // unflushed request bytes in bw
	closed  bool

	closedCh   chan struct{} // closed by Close; ends the reader's drain
	readerDone chan struct{}

	failMu  sync.Mutex
	failErr error

	sessionAt record.Timestamp
}

// Dial connects, performs the Hello handshake synchronously, and
// returns a ready client.
func Dial(addr string, opt Options) (*Client, error) {
	if opt.Window <= 0 {
		opt.Window = 32
	}
	if opt.MaxFrameBytes <= 0 {
		opt.MaxFrameBytes = wire.DefaultMaxFrame
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:         nc,
		opt:        opt,
		bw:         bufio.NewWriterSize(nc, 1<<12),
		pending:    make(chan *Call, opt.Window),
		closedCh:   make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	hello, err := c.send(wire.AppendHello(nil, wire.Hello{
		Version: wire.ProtocolVersion,
		Tenant:  opt.Tenant,
		At:      opt.At,
	}))
	var body []byte
	if err == nil {
		body, err = c.wait(hello)
	}
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	d := record.NewDecoder(body)
	c.sessionAt = d.Time()
	if derr := d.Err(); derr != nil {
		_ = c.Close()
		return nil, fmt.Errorf("client: hello reply: %w", derr)
	}
	return c, nil
}

// SessionAt returns the pinned session snapshot (updated by Refresh).
func (c *Client) SessionAt() record.Timestamp { return c.sessionAt }

// send frames one request, enqueues its Call, and writes the frame —
// all under sendMu, so FIFO position and wire position always agree.
// When the window is full it flushes first (the server cannot drain
// requests still sitting in our buffer) and then blocks for a slot.
func (c *Client) send(payload []byte) (*Call, error) {
	call := &Call{c: c, done: make(chan struct{})}
	frame := record.AppendFrame(nil, payload)

	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.closed {
		return nil, c.terminalErr()
	}
	select {
	case c.pending <- call:
	default:
		if err := c.bw.Flush(); err != nil {
			return nil, c.fail(err)
		}
		c.dirty = false
		select {
		case c.pending <- call:
		case <-c.readerDone:
			return nil, c.terminalErr()
		}
	}
	if _, err := c.bw.Write(frame); err != nil {
		return nil, c.fail(err)
	}
	c.dirty = true
	return call, nil
}

// flush pushes buffered request bytes to the wire; every wait calls it
// first so a synchronous caller can never block behind its own unsent
// request.
func (c *Client) flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if !c.dirty {
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	c.dirty = false
	return nil
}

// wait flushes then blocks for the call's response body.
func (c *Client) wait(call *Call) ([]byte, error) {
	if err := c.flush(); err != nil {
		<-call.done // reader fails it; don't race ahead of that
		return nil, err
	}
	<-call.done
	return call.body, call.err
}

// readLoop matches response frames to pending calls strictly FIFO.
// After the connection dies — error, EOF, or Close — it keeps failing
// pending calls until Close ends the drain, so no sender blocks on a
// dead window.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 1<<12)
	for {
		payload, err := record.ReadFrame(br, c.opt.MaxFrameBytes)
		if err != nil {
			_ = c.fail(err)
			break
		}
		var call *Call
		select {
		case call = <-c.pending:
		default:
			_ = c.fail(errors.New("unsolicited response frame"))
		}
		if call == nil {
			break
		}
		d, werr := wire.DecodeResponse(payload)
		if werr != nil {
			call.err = werr
		} else {
			call.body = payload[len(payload)-d.Remaining():]
		}
		close(call.done)
	}
	close(c.readerDone)
	for {
		select {
		case call := <-c.pending:
			call.err = c.terminalErr()
			close(call.done)
		case <-c.closedCh:
			// Sends are refused from here on; fail the stragglers.
			for {
				select {
				case call := <-c.pending:
					call.err = c.terminalErr()
					close(call.done)
				default:
					return
				}
			}
		}
	}
}

// fail records the first terminal error and severs the connection.
func (c *Client) fail(err error) error {
	if err == nil {
		err = ErrClosed
	}
	c.failMu.Lock()
	if c.failErr == nil {
		if errors.Is(err, ErrClosed) {
			c.failErr = err
		} else {
			c.failErr = fmt.Errorf("%w: %w", ErrClosed, err)
		}
		_ = c.nc.Close()
	}
	err = c.failErr
	c.failMu.Unlock()
	return err
}

func (c *Client) terminalErr() error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.failErr != nil {
		return c.failErr
	}
	return ErrClosed
}

// Close severs the connection and fails every in-flight call. It is
// idempotent.
func (c *Client) Close() error {
	c.sendMu.Lock()
	if c.closed {
		c.sendMu.Unlock()
		return nil
	}
	c.closed = true
	c.sendMu.Unlock()
	_ = c.fail(ErrClosed)
	close(c.closedCh)
	<-c.readerDone
	return nil
}
