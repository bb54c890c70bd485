package webobj

import (
	"time"

	"repro/internal/nameserv"
)

// NameServerConfig configures an embedded name server.
type NameServerConfig struct {
	// Listen pins the server's address on a TCP fabric ("host:port"); on a
	// memnet fabric it is the simulated address verbatim. Empty listens on
	// an ephemeral port ("ns" on memnet).
	Listen string
	// Peers lists the other name servers' addresses; the directory
	// replicates between peers by gossip.
	Peers []string
	// Index/Total place this server in the peer group (1-based) for
	// identifier-lease striping: server i of N allocates disjoint ranges
	// without coordinating. Zero values mean a single server.
	Index, Total int
	// SyncInterval is the directory's gossip period (default 500ms).
	SyncInterval time.Duration
	// LeaseTTL turns registrations into renewable liveness leases: a
	// contact point whose daemon stops heartbeating (System option
	// WithLeaseRenewal) is expired out of resolution after this long.
	// Zero disables expiry (registrations live until deregistered).
	LeaseTTL time.Duration
}

// NameServer is a running naming/location service instance. Deployments
// either run it standalone (cmd/globens) or embed one next to a daemon;
// daemons and clients reach it via WithNameServer(addr).
type NameServer struct {
	srv *nameserv.Server
	// ownFabric is closed with the server when the caller handed ownership
	// over (NewNameServer documents that it does).
	ownFabric Fabric
}

// NewNameServer starts a name server over its own fabric. The server takes
// ownership of the fabric: Close closes both. Do not share a System's
// fabric with an embedded name server — give it its own (they are cheap).
func NewNameServer(f Fabric, cfg NameServerConfig) (*NameServer, error) {
	name := "ns"
	if cfg.Listen != "" {
		name = "ns/" + cfg.Listen
	}
	srv, err := nameserv.NewServer(nameserv.Config{
		Fabric:       f,
		Name:         name,
		Index:        cfg.Index,
		Total:        cfg.Total,
		Peers:        cfg.Peers,
		SyncInterval: cfg.SyncInterval,
		LeaseTTL:     cfg.LeaseTTL,
	})
	if err != nil {
		return nil, err
	}
	return &NameServer{srv: srv, ownFabric: f}, nil
}

// Addr returns the server's address — what daemons pass to WithNameServer.
func (n *NameServer) Addr() string { return n.srv.Addr() }

// Close stops the server and its fabric.
func (n *NameServer) Close() error {
	err := n.srv.Close()
	if n.ownFabric != nil {
		if ferr := n.ownFabric.Close(); err == nil {
			err = ferr
		}
	}
	return err
}
