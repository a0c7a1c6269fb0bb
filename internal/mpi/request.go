package mpi

// Request is a handle on a nonblocking operation, mirroring MPI_Request.
// Sends complete immediately (the runtime buffers them, like a buffered
// MPI_Isend); receives complete when a matching message arrives.
type Request struct {
	done  chan struct{}
	owner *Comm
	op    string
	words []Word
	from  int
	err   *recvError // why the wait ended without a message
	crcOK bool
}

// Wait blocks until the operation completes and returns the received
// payload and source (both zero-valued for sends). Wait may be called more
// than once. If the world aborted or the receive timed out while the
// request was pending, Wait unwinds the calling rank with the same
// structured failure a blocking Recv would have raised.
func (r *Request) Wait() (words []Word, from int) {
	<-r.done
	if r.err != nil {
		if r.err.abort != nil {
			panic(abortPanic{r.err.abort})
		}
		rf := &ErrRankFailed{Rank: r.owner.rank, Op: r.op, Iter: r.owner.Epoch(), Cause: ErrRecvTimeout}
		r.owner.world.fail(rf)
		panic(rf)
	}
	if !r.crcOK {
		rf := &ErrRankFailed{Rank: r.from, Op: r.op, Iter: r.owner.Epoch(), Cause: ErrCorruptMessage}
		r.owner.world.fail(rf)
		panic(rf)
	}
	return r.words, r.from
}

// Done reports whether the operation has completed without blocking.
func (r *Request) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a nonblocking send. The runtime buffers the payload, so the
// returned request is already complete; it exists so code ported from MPI
// keeps its Isend/Wait shape.
func (c *Comm) Isend(dest, tag int, words []Word) *Request {
	c.Send(dest, tag, words)
	r := &Request{done: make(chan struct{}), owner: c, op: "isend", crcOK: true}
	close(r.done)
	return r
}

// Irecv starts a nonblocking receive for a message from src (or AnySource)
// with the given tag. The background wait is bounded by the watchdog
// timeout when one is configured; a timeout or world abort is surfaced by
// Wait, never by a panic on the internal goroutine.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{done: make(chan struct{}), owner: c, op: "irecv"}
	go func() {
		defer close(r.done)
		msg, err := c.world.boxes[c.rank].take(src, tag, c.world.curWatchdog())
		if err != nil {
			r.err = err
			return
		}
		r.words = msg.words
		r.from = msg.src
		r.crcOK = ChecksumWords(msg.words) == msg.crc
	}()
	return r
}

// WaitAll blocks until every request completes and surfaces the first
// failure among them, if any.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}
