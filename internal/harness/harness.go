// Package harness builds and runs the reproduction experiments: one per
// figure/table of the paper. Each experiment assembles stores and clients over a simulated network, drives
// a synthetic workload, and reports a printable table of measured message
// counts, bytes, latencies, and staleness.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/msg"
	"repro/internal/naming"
	"repro/internal/replication"
	"repro/internal/semantics/webdoc"
	"repro/internal/store"
	"repro/internal/transport/memnet"
)

// Table is one experiment's result: a titled grid plus free-form notes.
type Table struct {
	ID     string // experiment id, e.g. "F1", "T2"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options tunes experiment sizes.
type Options struct {
	// Quick shrinks workloads for use inside `go test` and CI.
	Quick bool
}

func (o Options) ops(full int) int {
	if o.Quick {
		return full / 5
	}
	return full
}

// All runs every experiment in paper order.
func All(o Options) []*Table {
	return []*Table{
		Figure1(o),
		Figure2(o),
		Table1Sweep(o),
		Table2Conference(o),
		ModelsObjectBased(o),
		ModelsSession(o),
		ClaimPerObjectVsUniform(o),
		E2ELossyRecovery(o),
	}
}

// --- shared scenario plumbing -------------------------------------------------

// rig is a disposable network + naming + stores assembly.
type rig struct {
	net *memnet.Network
	ns  *naming.Service
}

func newRigH(opts ...memnet.Option) *rig {
	return &rig{net: memnet.New(opts...), ns: naming.New()}
}

func (r *rig) close() { _ = r.net.Close() }

func (r *rig) mustStore(addr string, role replication.Role, timeout time.Duration) *store.Store {
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		panic(err)
	}
	return store.New(store.Config{
		ID: r.ns.NextStore(), Role: role, Endpoint: ep, Tuning: replication.Tuning{ReadTimeout: timeout},
	})
}

func (r *rig) mustBind(addr, storeAddr string, obj ids.ObjectID, timeout time.Duration, models ...coherence.ClientModel) *core.Proxy {
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		panic(err)
	}
	p, err := core.Bind(core.BindConfig{
		Object: obj, Endpoint: ep, StoreAddr: storeAddr,
		Client: r.ns.NextClient(), Session: models,
		Prototype: webdoc.New(), Timeout: timeout,
	})
	if err != nil {
		panic(err)
	}
	return p
}

func mustHost(s *store.Store, hc store.HostConfig) {
	if err := s.Host(hc); err != nil {
		panic(err)
	}
}

func putContent(p *core.Proxy, page string, content []byte) error {
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: content, ContentType: "text/html", ModifiedNanos: time.Now().UnixNano(),
	})
	_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodPutPage, Page: page, Args: args})
	return err
}

func appendContent(p *core.Proxy, page string, content []byte) error {
	args := webdoc.EncodeWriteArgs(webdoc.WriteArgs{
		Content: content, ModifiedNanos: time.Now().UnixNano(),
	})
	_, err := p.Invoke(msg.Invocation{Method: webdoc.MethodAppendPage, Page: page, Args: args})
	return err
}

// readVersion reads a page and returns its replica version (0 on miss).
func readVersion(p *core.Proxy, page string) (uint64, error) {
	out, err := p.Invoke(msg.Invocation{Method: webdoc.MethodGetPage, Page: page})
	if err != nil {
		return 0, err
	}
	pg, err := webdoc.DecodePage(out)
	if err != nil {
		return 0, err
	}
	return pg.Version, nil
}

// settle waits for cond or the deadline (experiments tolerate timeouts and
// report whatever converged).
func settle(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }
