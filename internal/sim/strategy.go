package sim

// ProcID identifies a processor. Processors are numbered 1..n as in the
// paper's model, where the id set V = [n] is common knowledge.
type ProcID int

// Strategy is the deterministic behaviour of a single processor: a function
// from everything the processor knows (its id, its random string, and its
// receive history) to the messages it sends. Strategies are invoked once on
// wake-up and then once per received message. A strategy that deviates from
// a protocol in any way models an adversary (Definition 2.2).
type Strategy interface {
	// Init is the wake-up event. Most ring processors do nothing here
	// except draw their secrets; the origin additionally sends.
	Init(ctx *Context)

	// Receive handles one incoming message. from is the link's source
	// processor, value the payload. The strategy may send zero or more
	// messages and may terminate.
	Receive(ctx *Context, from ProcID, value int64)
}

// Backend is the runtime a Context delegates to. The event-driven Network
// is the default backend; the conc package provides a goroutine-per-
// processor backend running the same strategies on real channels.
type Backend interface {
	// Send enqueues value on the processor's default (first) outgoing
	// link; on a unidirectional ring that is the only link.
	Send(from ProcID, value int64)
	// SendTo enqueues value on the link towards the given neighbour, or
	// silently drops the message if no such link exists.
	SendTo(from, to ProcID, value int64)
	// Terminate ends the processor's participation; aborted selects ⊥.
	Terminate(from ProcID, output int64, aborted bool)
	// Sent returns how many messages the processor has sent so far.
	Sent(p ProcID) int
	// Received returns how many messages it has processed so far.
	Received(p ProcID) int
	// Size returns the number of processors.
	Size() int
}

// Context is a strategy's handle to its runtime during one invocation.
// It exposes exactly the capabilities the model grants a processor: sending
// on its outgoing links, terminating with an output (or aborting with ⊥),
// and local randomness.
type Context struct {
	backend Backend
	// net is the devirtualized backend: non-nil exactly when backend is the
	// event-driven *Network, letting the primitives call concrete methods
	// instead of paying an interface dispatch on the hottest path in the
	// repository. Send, the per-message primitive, is itself inlined into
	// the calling strategy: its one call, Network.send, pushes an untraced
	// FIFO message onto the pending ring in that frame. The other
	// primitives make one direct call into the network. Foreign backends
	// (the conc runtime, test doubles) leave net nil and take the
	// interface route.
	net  *Network
	self ProcID
	rng  Stream
}

// NewContext builds a context for the given backend; used by runtimes, not
// by strategies.
func NewContext(backend Backend, self ProcID, seed int64) Context {
	net, _ := backend.(*Network)
	return Context{backend: backend, net: net, self: self, rng: NewStream(seed, self)}
}

// Reseed rewinds the context's PRNG to the start of the stream a fresh
// NewContext with the same trial seed would draw. With the counter-based
// Stream this is a two-word store — the arena primitive that lets a recycled
// network reproduce a fresh network's randomness bit-for-bit at zero cost.
func (c *Context) Reseed(seed int64) {
	c.rng = NewStream(seed, c.self)
}

// Self returns the processor's own id.
func (c *Context) Self() ProcID { return c.self }

// N returns the number of processors in the network. The id set V = [n] is
// known to every processor in the model.
func (c *Context) N() int { return c.backend.Size() }

// Rand returns the processor's local source of randomness. It is derived
// deterministically from the trial seed and the processor id, so executions
// are reproducible. The pointer is into the Context itself; it is valid for
// the strategy invocation it was obtained in.
func (c *Context) Rand() *Stream { return &c.rng }

// Send enqueues value on the processor's unique outgoing link. It is the
// natural primitive on a unidirectional ring. If the processor has several
// outgoing links, the first configured link is used; use SendTo on general
// graphs. Sends after termination are ignored (a terminated processor is
// silent).
//
// Send is a single call to Network.send so that it inlines into every
// strategy; `make inline-check` fails when it stops inlining.
func (c *Context) Send(value int64) { c.net.send(c, value) }

// SendTo enqueues value on the link from this processor to the given
// neighbour. If no such link exists the message is silently dropped, which
// models an (impossible) send outside the communication graph.
func (c *Context) SendTo(to ProcID, value int64) {
	if c.net != nil {
		c.net.SendTo(c.self, to, value)
		return
	}
	c.backend.SendTo(c.self, to, value)
}

// Terminate ends the processor's participation with the given output.
// Subsequent deliveries to this processor are dropped and subsequent sends
// from it are ignored.
func (c *Context) Terminate(output int64) {
	if c.net != nil {
		c.net.Terminate(c.self, output, false)
		return
	}
	c.backend.Terminate(c.self, output, false)
}

// Abort terminates the processor with output ⊥, the model's "punishment"
// move: a single aborting processor forces outcome = FAIL.
func (c *Context) Abort() {
	if c.net != nil {
		c.net.Terminate(c.self, 0, true)
		return
	}
	c.backend.Terminate(c.self, 0, true)
}

// Sent returns how many messages this processor has sent so far, the
// Sent_i^t counter used throughout the synchronization analysis (Appendix D).
func (c *Context) Sent() int {
	if c.net != nil {
		return c.net.Sent(c.self)
	}
	return c.backend.Sent(c.self)
}

// Received returns how many messages this processor has processed so far.
func (c *Context) Received() int {
	if c.net != nil {
		return c.net.Received(c.self)
	}
	return c.backend.Received(c.self)
}
