package wire

import (
	"errors"
	"fmt"

	"github.com/catfish-db/catfish/internal/geo"
)

// Method identifies how a search was executed. Both transports' clients
// and the shard router report it.
type Method int

// Search methods.
const (
	// MethodFast is fast messaging: the server executes the search.
	MethodFast Method = iota + 1
	// MethodOffload is client-side traversal over one-sided reads.
	MethodOffload
	// MethodTCP is the simulated kernel-TCP baseline path.
	MethodTCP
	// MethodFetch is RFP-style remote result fetching: the server executes
	// the search and deposits the result in a mailbox slot that the client
	// pulls (DESIGN.md §5.10).
	MethodFetch
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodFast:
		return "fast"
	case MethodOffload:
		return "offload"
	case MethodTCP:
		return "tcp"
	case MethodFetch:
		return "fetch"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Errors shared by both transports' clients and the shard router.
var (
	// ErrNotFound reports a delete whose entry does not exist.
	ErrNotFound = errors.New("wire: entry not found")
	// ErrClosed reports a torn-down connection; a router treats it like a
	// replica refusing service and fails over.
	ErrClosed = errors.New("wire: connection closed")
	// ErrOverloaded surfaces a typed StatusOverloaded shed: the server's
	// admission controller refused the operation without executing it.
	// Distinct from transport errors and from the failover sentinels —
	// the server is alive, just saturated; retry (ideally elsewhere)
	// with backoff.
	ErrOverloaded = errors.New("wire: server overloaded")
)

// BatchOp is one operation submitted through a client's or router's
// ExecBatch.
type BatchOp struct {
	Type MsgType  // MsgSearch, MsgInsert, MsgDelete, MsgMove or MsgKNN
	Rect geo.Rect // query rect; move source; kNN query point (degenerate rect)
	Ref  uint64   // insert/delete/move payload; k for MsgKNN
	// Rect2 is the move destination (MsgMove only).
	Rect2 geo.Rect
}

// BatchResult is the outcome of one batched operation, in submission order.
type BatchResult struct {
	Method Method
	Items  []Item
	Err    error
}
