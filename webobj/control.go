package webobj

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/msg"
	"repro/internal/nameserv"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// ControlRequest is the daemon control RPC: host or drop a replica at
// runtime in a running System (typically a globed daemon). It travels
// JSON-encoded in a KindCtrlRequest frame.
type ControlRequest struct {
	// Op is "host", "drop", "stats", "metrics", or "trace". The metrics and
	// trace ops are daemon-wide (no object): they return the registry
	// snapshot and the trace ring respectively, empty unless the daemon was
	// built with WithMetrics / WithTrace.
	Op string `json:"op"`
	// Store names the daemon store to act on ("" = the daemon's only
	// store; an error if it has several).
	Store string `json:"store,omitempty"`
	// Object is the object to host or drop.
	Object string `json:"object"`
	// Publish makes the store the object's publisher (permanent stores
	// only); otherwise a replica is installed, with semantics and strategy
	// resolved from the name record.
	Publish bool `json:"publish,omitempty"`
	// Semantics/Strategy configure a publication ("webdoc"/"kv"/"applog";
	// a preset name or a strategy.Marshal text). Replicas resolve both
	// from the record and leave these empty.
	Semantics string `json:"semantics,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// Session lists the client models the replica must support
	// ("ryw,mr,...").
	Session string `json:"session,omitempty"`
	// Parent overrides the replica's upstream store address; empty picks
	// the record's permanent entry.
	Parent string `json:"parent,omitempty"`
}

// StrategyBySpec resolves a strategy flag/manifest value: a preset name
// ("conference", "whiteboard", ...) or a full strategy.Marshal text
// ("model=pram,prop=1,...").
func StrategyBySpec(spec string) (Strategy, error) {
	if s, ok := StrategyPresets()[spec]; ok {
		return s, nil
	}
	s, err := strategy.Parse(spec)
	if err != nil {
		return Strategy{}, fmt.Errorf("webobj: strategy %q is neither a preset nor a strategy text: %w", spec, err)
	}
	return s, nil
}

// ServeControl starts a control listener on this system's fabric: a
// lightweight RPC surface through which a running daemon hosts and drops
// replicas (globed's -control flag; globectl's ctl subcommands). hint pins
// the listen address on TCP fabrics. It returns the resolved address.
func (s *System) ServeControl(hint string) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("webobj: system closed")
	}
	s.mu.Unlock()
	ep, err := s.fabric.Endpoint("ctl/" + hint)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ctlEps = append(s.ctlEps, ep)
	s.mu.Unlock()
	go func() {
		for m := range ep.Recv() {
			if m.Kind != msg.KindCtrlRequest {
				continue
			}
			r := m.Reply(msg.KindCtrlReply)
			r.From = ep.Addr()
			out, err := s.handleControl(m.Payload)
			if err != nil {
				r.Status = msg.StatusError
				r.Err = err.Error()
			} else {
				r.Payload = out
			}
			_ = ep.Send(m.From, r)
		}
	}()
	return ep.Addr(), nil
}

// ControlStats is the payload of a "stats" control reply: one replica's
// replication counters (including re-parenting: ReparentsDone,
// ParentMissedDigests), durability state, applied version vector, and —
// when the daemon resolves through a networked name service — its lease
// liveness counters.
type ControlStats struct {
	Store      string                     `json:"store"`
	Object     string                     `json:"object"`
	Stats      replication.Stats          `json:"stats"`
	Durability replication.DurabilityInfo `json:"durability"`
	Applied    msg.Vec                    `json:"applied,omitzero"`
	// Naming carries the daemon's name-service client counters
	// (lease renewals sent, resolve cache hits/misses, directory records
	// expired); nil when the daemon resolves in-process.
	Naming *nameserv.ClientStats `json:"naming,omitempty"`
	// Transport carries the fabric's traffic counters (frames, bytes,
	// dials/redials on TCP); nil when the fabric exposes none.
	Transport map[string]uint64 `json:"transport,omitempty"`
	// WalSyncP99Seconds and WalGroupCommitP99 summarise the replica's WAL
	// histograms (fsync barrier latency; acks retired per barrier). Present
	// only when the daemon runs WithMetrics and the replica is durable.
	WalSyncP99Seconds float64 `json:"wal_sync_p99_seconds,omitempty"`
	WalGroupCommitP99 float64 `json:"wal_group_commit_p99,omitempty"`
}

// handleControl executes one control command against this system. The
// returned payload is op-specific (nil for host/drop, JSON for stats).
func (s *System) handleControl(payload []byte) ([]byte, error) {
	var req ControlRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("bad control payload: %w", err)
	}
	// Daemon-wide ops first: they address the whole system, not a replica.
	switch req.Op {
	case "metrics":
		return json.Marshal(s.MetricsSnapshot())
	case "trace":
		return json.Marshal(s.TraceEvents())
	}
	if req.Object == "" {
		return nil, errors.New("control request needs an object")
	}
	st, err := s.controlStore(req.Store)
	if err != nil {
		return nil, err
	}
	obj := ObjectID(req.Object)
	switch req.Op {
	case "drop":
		return nil, s.Drop(st, obj)
	case "stats":
		return s.controlStats(st, obj)
	case "host":
		models, err := ClientModelsByNames(req.Session)
		if err != nil {
			return nil, err
		}
		if req.Publish {
			sem, err := SemanticsByName(req.Semantics)
			if err != nil {
				return nil, err
			}
			strat, err := StrategyBySpec(req.Strategy)
			if err != nil {
				return nil, err
			}
			return nil, s.Publish(st, obj, sem, strat, models...)
		}
		parent, err := s.controlParent(st, obj, req.Parent)
		if err != nil {
			return nil, err
		}
		return nil, s.ReplicateFrom(st, parent, obj, models...)
	default:
		return nil, fmt.Errorf("unknown control op %q (want host|drop|stats|metrics|trace)", req.Op)
	}
}

// controlStats answers the "stats" op for one hosted replica.
func (s *System) controlStats(st *Store, obj ObjectID) ([]byte, error) {
	if st.Remote() {
		return nil, fmt.Errorf("store %q is attached, not hosted here", st.name)
	}
	stats, err := st.st.Stats(obj)
	if err != nil {
		return nil, err
	}
	dur, err := st.st.Durability(obj)
	if err != nil {
		return nil, err
	}
	applied, err := st.st.Applied(obj)
	if err != nil {
		return nil, err
	}
	out := ControlStats{
		Store:      st.name,
		Object:     string(obj),
		Stats:      stats,
		Durability: dur,
		Applied:    applied,
	}
	if ns, ok := s.res.(*nameserv.Client); ok {
		cs := ns.Stats()
		out.Naming = &cs
	}
	if src, ok := s.fabric.(transport.StatsSource); ok {
		out.Transport = src.StatsMap()
	}
	if reg := s.obsv.Registry(); reg != nil {
		ls := []obs.Label{
			obs.L("store", strconv.FormatUint(uint64(st.st.ID()), 10)),
			obs.L("object", string(obj)),
		}
		if p := reg.Find("globe_wal_sync_seconds", ls...); p != nil && p.Hist != nil {
			out.WalSyncP99Seconds = p.Hist.P99
		}
		if p := reg.Find("globe_wal_group_commit_size", ls...); p != nil && p.Hist != nil {
			out.WalGroupCommitP99 = p.Hist.P99
		}
	}
	return json.Marshal(out)
}

// controlStore resolves the target store of a control request.
func (s *System) controlStore(name string) (*Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name != "" {
		st, ok := s.stores[name]
		if !ok {
			return nil, fmt.Errorf("no store %q in this daemon", name)
		}
		return st, nil
	}
	var only *Store
	for _, st := range s.stores {
		if st.Remote() {
			continue
		}
		if only != nil {
			return nil, errors.New("daemon hosts several stores; name one with \"store\"")
		}
		only = st
	}
	if only == nil {
		return nil, errors.New("daemon hosts no local store")
	}
	return only, nil
}

// controlParent picks the upstream store for a runtime replica: the
// explicit address, the store's creation-time parent, or the name record's
// permanent entry.
func (s *System) controlParent(st *Store, obj ObjectID, addr string) (*Store, error) {
	if addr == "" {
		s.mu.Lock()
		parentName, has := s.parents[st.name]
		parent := s.stores[parentName]
		s.mu.Unlock()
		if has && parent != nil {
			return parent, nil
		}
		rec, err := s.res.Resolve(obj)
		if err != nil {
			return nil, fmt.Errorf("no parent given and record unresolvable: %w", err)
		}
		addr = ParentFromRecord(rec, st.Addr())
		if addr == "" {
			return nil, fmt.Errorf("record for %q lists no permanent store to replicate from", obj)
		}
	}
	return s.attachOrReuse(addr)
}

// ParentFromRecord picks the replication parent a name record suggests: the
// object's permanent entry, skipping selfAddr. Empty when the record lists
// none. Daemons use it to auto-wire replicas from resolution alone.
func ParentFromRecord(rec NameRecord, selfAddr string) string {
	for _, e := range rec.Entries {
		if e.Role == replication.RolePermanent && e.Addr != selfAddr {
			return e.Addr
		}
	}
	return ""
}

// attachOrReuse returns the attached handle for addr, attaching it fresh
// when this system has not seen it before.
func (s *System) attachOrReuse(addr string) (*Store, error) {
	s.mu.Lock()
	if st, ok := s.stores[addr]; ok {
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()
	return s.AttachServer(addr)
}

// ControlClient drives a daemon's control listener from another process.
type ControlClient struct {
	demux   *transport.Demux
	addr    string
	timeout time.Duration
}

// NewControl connects a control client to the daemon control listener at
// addr over fabric f (the caller keeps ownership of the fabric).
func NewControl(f Fabric, addr string) (*ControlClient, error) {
	ep, err := f.Endpoint("ctlc")
	if err != nil {
		return nil, err
	}
	return &ControlClient{
		demux:   transport.NewDemux(ep),
		addr:    addr,
		timeout: 5 * time.Second,
	}, nil
}

// Call executes one control request and returns the daemon's verdict.
func (c *ControlClient) Call(req ControlRequest) error {
	_, err := c.CallPayload(req)
	return err
}

// CallPayload executes one control request and returns the reply payload
// (ops like "stats" answer with JSON; host/drop answer empty).
func (c *ControlClient) CallPayload(req ControlRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r, err := c.demux.Call(c.addr, &msg.Message{
		Kind:    msg.KindCtrlRequest,
		Payload: payload,
	}, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("webobj: control call to %s: %w", c.addr, err)
	}
	if r.Status != msg.StatusOK {
		return nil, fmt.Errorf("webobj: control %s %q: %s", req.Op, req.Object, r.Err)
	}
	return r.Payload, nil
}

// Stats fetches one replica's counters, durability state, and applied
// vector from a daemon.
func (c *ControlClient) Stats(storeName, object string) (ControlStats, error) {
	var out ControlStats
	payload, err := c.CallPayload(ControlRequest{Op: "stats", Store: storeName, Object: object})
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return out, fmt.Errorf("webobj: bad stats payload from %s: %w", c.addr, err)
	}
	return out, nil
}

// Metrics fetches the daemon's full metrics snapshot (empty unless the
// daemon runs WithMetrics).
func (c *ControlClient) Metrics() ([]MetricPoint, error) {
	payload, err := c.CallPayload(ControlRequest{Op: "metrics"})
	if err != nil {
		return nil, err
	}
	var out []MetricPoint
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, fmt.Errorf("webobj: bad metrics payload from %s: %w", c.addr, err)
	}
	return out, nil
}

// Trace fetches the daemon's trace ring, oldest first (empty unless the
// daemon runs WithTrace).
func (c *ControlClient) Trace() ([]TraceEvent, error) {
	payload, err := c.CallPayload(ControlRequest{Op: "trace"})
	if err != nil {
		return nil, err
	}
	var out []TraceEvent
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, fmt.Errorf("webobj: bad trace payload from %s: %w", c.addr, err)
	}
	return out, nil
}

// Close releases the control client and its endpoint.
func (c *ControlClient) Close() error { return c.demux.Close() }
