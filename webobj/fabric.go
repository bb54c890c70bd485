package webobj

import (
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
)

// Fabric is the network substrate a System deploys over: anything that can
// mint transport endpoints. The same deployment code runs over an
// in-process simulated network (NewMemFabric) or over real TCP
// (NewTCPFabric); the fabric is the only thing that changes between a
// simulation and a multi-process production deployment.
//
// The System owns the fabric it is built with: System.Close closes it.
type Fabric = transport.Fabric

// NewMemFabric creates an in-process simulated network fabric (instant and
// lossless by default; memnet options configure seed, latency, jitter,
// loss). Store names are used verbatim as simulated addresses, so link
// shaping and partitions address stores as "store/<name>".
func NewMemFabric(opts ...memnet.Option) *memnet.Network { return memnet.New(opts...) }

// TCPOption configures NewTCPFabric (e.g. WithMaxInboundFrame).
type TCPOption = tcpnet.FabricOption

// WithMaxInboundFrame bounds the frames a TCP endpoint accepts from any
// peer: a larger announced frame drops the connection before any
// allocation sized by the announcement. Deployments reachable from beyond loopback should set it to
// a small multiple of their largest expected snapshot.
func WithMaxInboundFrame(n int) TCPOption { return tcpnet.WithMaxInboundFrame(n) }

// NewTCPFabric creates a real-TCP fabric. Stores whose name is a host:port
// listen on exactly that address (the way a daemon pins its advertised
// address); all other endpoints listen on an ephemeral port of host
// ("" = 127.0.0.1).
func NewTCPFabric(host string, opts ...TCPOption) *tcpnet.Fabric {
	return tcpnet.NewFabric(host, opts...)
}
