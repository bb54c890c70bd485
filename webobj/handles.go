package webobj

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/semantics/applog"
	"repro/internal/semantics/kvstore"
	"repro/internal/semantics/webdoc"
	"repro/internal/transport"
)

// binding is the shared client-side core every typed handle wraps: one
// proxy bound to one replica, plus the endpoint the binding owns. All
// session-guarantee bookkeeping lives in the proxy; the typed handles only
// translate methods to marshalled invocations.
type binding struct {
	proxy *core.Proxy
	ep    transport.Endpoint
	once  sync.Once
	// sys/object/failover drive the retry-and-rebind loop in invoke
	// (failover.go); a nil sys falls back to single-shot calls. pinned
	// marks an At()-bound handle, which retries in place but never
	// migrates to another replica.
	sys      *System
	object   ObjectID
	failover FailoverConfig
	pinned   bool
	// closeHook runs once on Close, before teardown; pinned-client
	// bindings use it to report the session's write-sequence floor to the
	// resolver so a future session reusing the identity resumes past it.
	closeHook func()
}

// Client returns the binding's client identity.
func (b *binding) Client() ids.ClientID { return b.proxy.Client() }

// StoreAddr returns the address of the store the binding is attached to.
func (b *binding) StoreAddr() string { return b.proxy.StoreAddr() }

// Rebind moves this client to another store, keeping session guarantees
// (the Monotonic Reads travelling-client scenario).
func (b *binding) Rebind(at *Store) error { return b.proxy.Rebind(at.Addr()) }

// Close releases the binding and its endpoint. Idempotent.
func (b *binding) Close() {
	b.once.Do(func() {
		if b.closeHook != nil {
			b.closeHook()
		}
		b.proxy.Close()
		_ = b.ep.Close()
	})
}

// Document is a typed client binding to a WebDoc object: a distributed
// multi-page Web document.
type Document struct {
	*binding
}

// do invokes inv for its outcome alone.
func (b *binding) do(inv msg.Invocation) error {
	r, err := b.invoke(inv)
	r.Release()
	return err
}

// decode invokes inv and decodes the reply payload with dec before the
// reply's frame is released; dec must copy whatever it returns.
func decode[T any](b *binding, inv msg.Invocation, dec func([]byte) (T, error)) (T, error) {
	r, err := b.invoke(inv)
	if err != nil {
		var zero T
		return zero, err
	}
	defer r.Release()
	return dec(r.Payload)
}

// Get retrieves a page.
func (d *Document) Get(page string) (*Page, error) {
	return decode(d.binding, msg.Invocation{Method: webdoc.MethodGetPage, Page: page}, webdoc.DecodePage)
}

// Stat retrieves page metadata without content.
func (d *Document) Stat(page string) (*Page, error) {
	return decode(d.binding, msg.Invocation{Method: webdoc.MethodStatPage, Page: page}, webdoc.DecodePage)
}

// Put replaces a page.
func (d *Document) Put(page string, content []byte, contentType string) error {
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: content, ContentType: contentType, ModifiedNanos: time.Now().UnixNano(),
	})
	return d.do(msg.Invocation{Method: webdoc.MethodPutPage, Page: page, Args: args})
}

// Append adds content to a page (the paper's incremental update).
func (d *Document) Append(page string, content []byte) error {
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: content, ModifiedNanos: time.Now().UnixNano(),
	})
	return d.do(msg.Invocation{Method: webdoc.MethodAppendPage, Page: page, Args: args})
}

// Delete removes a page.
func (d *Document) Delete(page string) error {
	return d.do(msg.Invocation{Method: webdoc.MethodDeletePage, Page: page})
}

// Pages lists page names.
func (d *Document) Pages() ([]string, error) {
	return decode(d.binding, msg.Invocation{Method: webdoc.MethodListPages}, webdoc.DecodeStrings)
}

// Map is a typed client binding to a KV object: a distributed key-value
// map.
type Map struct {
	*binding
}

// copyBytes is the decoder of a reply that is a value itself.
func copyBytes(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil }

// Get returns the value stored under key.
func (m *Map) Get(key string) ([]byte, error) {
	return decode(m.binding, msg.Invocation{Method: kvstore.MethodGet, Page: key}, copyBytes)
}

// Put stores value under key.
func (m *Map) Put(key string, value []byte) error {
	return m.do(msg.Invocation{Method: kvstore.MethodPut, Page: key, Args: value})
}

// Delete removes key.
func (m *Map) Delete(key string) error {
	return m.do(msg.Invocation{Method: kvstore.MethodDelete, Page: key})
}

// Keys lists the sorted key set.
func (m *Map) Keys() ([]string, error) {
	return decode(m.binding, msg.Invocation{Method: kvstore.MethodKeys}, kvstore.DecodeKeys)
}

// Log is a typed client binding to an AppLog object: a distributed
// append-only log.
type Log struct {
	*binding
}

// Append adds an entry to the log.
func (l *Log) Append(payload []byte) error {
	return l.do(msg.Invocation{Method: applog.MethodAppend, Args: payload})
}

// Len returns the number of entries.
func (l *Log) Len() (int, error) {
	return decode(l.binding, msg.Invocation{Method: applog.MethodLen}, applog.DecodeLen)
}

// Entry returns the i-th entry.
func (l *Log) Entry(i int) ([]byte, error) {
	return decode(l.binding, msg.Invocation{Method: applog.MethodEntry, Args: applog.EncodeIndex(i)}, copyBytes)
}

// Suffix returns all entries from index i on.
func (l *Log) Suffix(i int) ([][]byte, error) {
	return decode(l.binding, msg.Invocation{Method: applog.MethodSuffix, Args: applog.EncodeIndex(i)}, applog.DecodeEntries)
}
