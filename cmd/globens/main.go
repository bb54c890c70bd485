// Command globens is the standalone name server: the networked
// naming/location service daemons register their objects with, clients
// resolve through, and identifier leases come from. Several instances hold
// replicas of one directory object, kept in sync by gossip, and stripe the
// identifier lease space, so any of them can serve any daemon.
//
// Single server:
//
//	globens -listen 127.0.0.1:7100
//
// A replicated pair:
//
//	globens -listen 127.0.0.1:7100 -peers 127.0.0.1:7101 -index 1 -total 2
//	globens -listen 127.0.0.1:7101 -peers 127.0.0.1:7100 -index 2 -total 2
//
// Daemons and clients then run with -nameserver 127.0.0.1:7100 (or a
// comma-separated list for failover).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/webobj"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("globens: %v", err)
	}
}

func run() error {
	var (
		listen = flag.String("listen", "127.0.0.1:7100", "TCP address to listen on")
		peers  = flag.String("peers", "", "comma-separated peer name-server addresses")
		index  = flag.Int("index", 1, "this server's 1-based index in the peer group (lease striping)")
		total  = flag.Int("total", 1, "total servers in the peer group")
		sync   = flag.Duration("sync", 500*time.Millisecond, "directory gossip interval between peers")
		lease  = flag.Duration("lease-ttl", 0, "contact-point lease TTL: registrations from daemons that stop heartbeating expire out of resolution after this long (0 disables)")
	)
	flag.Parse()
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	if *total < len(peerList)+1 {
		return fmt.Errorf("-total %d is smaller than this server plus %d peers", *total, len(peerList))
	}

	ns, err := webobj.NewNameServer(webobj.NewTCPFabric(""), webobj.NameServerConfig{
		Listen:       *listen,
		Peers:        peerList,
		Index:        *index,
		Total:        *total,
		SyncInterval: *sync,
		LeaseTTL:     *lease,
	})
	if err != nil {
		return err
	}
	defer ns.Close()
	log.Printf("globens: name server %d/%d at %s (peers: %s)", *index, *total, ns.Addr(),
		strings.Join(peerList, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("globens: shutting down")
	return nil
}
