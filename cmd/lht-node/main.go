// Command lht-node runs one storage node of an LHT cluster: a TCP
// key-value server speaking internal/tcpnet's framed binary protocol.
// Start a few on different ports, then point lht-cli (or any program
// using tcpnet.Dial + lht.New) at the full member list:
//
//	lht-node -listen 127.0.0.1:7001 -data /var/lib/lht/n1.snap &
//	lht-node -listen 127.0.0.1:7002 -data /var/lib/lht/n2.snap &
//	lht-node -listen 127.0.0.1:7003 -data /var/lib/lht/n3.snap &
//	lht-cli -nodes 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 fill 10000
//
// With -data set, the node loads its shard at startup and snapshots it
// on SIGINT/SIGTERM, so a restart preserves the index; adding
// -snapshot-interval 30s also snapshots periodically, bounding what a
// hard crash can lose to one interval.
//
// With -metrics set, the node serves its traffic counters in Prometheus
// text format on http://ADDR/metrics (plus net/http/pprof profiles):
//
//	lht-node -listen 127.0.0.1:7001 -metrics 127.0.0.1:9001 &
//	curl -s http://127.0.0.1:9001/metrics | grep lht_dht_lookups_total
//
// With -gossip-peers set, the node joins the self-healing membership
// plane: it anti-entropy-gossips a versioned cluster view with its
// peers, and declares unresponsive members suspect and then dead.
// Adding -repair-interval makes the node periodically scrub the shared
// index with re-replication, restoring the replica count of buckets lost
// to permanent node failures, and the copies a returned holder missed
// while it was down (run it on one node per cluster, or stagger the
// intervals):
//
//	lht-node -listen 127.0.0.1:7001 \
//	  -gossip-peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	  -repair-interval 30s -repair-replicas 3 &
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lht"
	"lht/internal/metrics"
	"lht/internal/tcpnet"
)

// nodeConfig carries the parsed flag set into run.
type nodeConfig struct {
	listen, data, metricsAddr string
	snapshotInterval          time.Duration
	gossipPeers               []string
	gossipInterval            time.Duration
	gossipSeed                int64
	repairInterval            time.Duration
	repairReplicas            int
}

func main() {
	var cfg nodeConfig
	listen := flag.String("listen", "127.0.0.1:7001", "address to listen on")
	data := flag.String("data", "", "snapshot file for the node's shard (empty = in-memory only)")
	interval := flag.Duration("snapshot-interval", 0, "also snapshot the shard periodically (0 = only on shutdown); requires -data")
	metricsAddr := flag.String("metrics", "", "serve Prometheus /metrics and pprof on this address (empty = disabled)")
	peers := flag.String("gossip-peers", "", "comma-separated cluster member addresses (including this node); enables the membership plane")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "anti-entropy gossip period; requires -gossip-peers")
	gossipSeed := flag.Int64("gossip-seed", 0, "seed for deterministic gossip peer selection (0 = derive from the listen address)")
	repairInterval := flag.Duration("repair-interval", 0, "scrub the shared index with re-replication this often (0 = off); requires -gossip-peers")
	repairReplicas := flag.Int("repair-replicas", 2, "replica count the cluster's writers use; the repair scrub restores it")
	flag.Parse()
	cfg.listen, cfg.data, cfg.metricsAddr = *listen, *data, *metricsAddr
	cfg.snapshotInterval = *interval
	if *peers != "" {
		cfg.gossipPeers = strings.Split(*peers, ",")
	}
	cfg.gossipInterval, cfg.gossipSeed = *gossipInterval, *gossipSeed
	cfg.repairInterval, cfg.repairReplicas = *repairInterval, *repairReplicas
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lht-node:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg nodeConfig) error {
	listen, data, metricsAddr := cfg.listen, cfg.data, cfg.metricsAddr
	interval := cfg.snapshotInterval
	srv := tcpnet.NewServer()
	if data != "" {
		if err := srv.LoadSnapshot(data); err != nil {
			return err
		}
		log.Printf("loaded %d keys from %s", srv.Len(), data)
	}
	if interval > 0 && data == "" {
		return fmt.Errorf("-snapshot-interval requires -data")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}

	// Membership plane: seed the view with the configured member list
	// and anti-entropy gossip on the configured period. Self must be the
	// address peers dial, so -listen needs an explicit host with gossip
	// on.
	if len(cfg.gossipPeers) > 0 {
		seed := cfg.gossipSeed
		if seed == 0 {
			h := fnv.New64a()
			_, _ = h.Write([]byte(listen))
			seed = int64(h.Sum64())
		}
		mem := srv.EnableMembership(tcpnet.MembershipConfig{
			Self:  listen,
			Seeds: cfg.gossipPeers,
			Seed:  seed,
		})
		go mem.Run(ctx, cfg.gossipInterval)
		log.Printf("membership plane on: %d member(s), gossip every %v", len(cfg.gossipPeers), cfg.gossipInterval)
	} else if cfg.repairInterval > 0 {
		return fmt.Errorf("-repair-interval requires -gossip-peers")
	}
	if cfg.repairInterval > 0 {
		if cfg.repairReplicas < 2 {
			return fmt.Errorf("-repair-replicas must be at least 2")
		}
		go repairLoop(ctx, cfg)
	}

	// The observability endpoint is separate from the data port so
	// scrapes never contend with the data protocol.
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: metrics.NewMux(srv.Metrics)}
		go func() {
			<-ctx.Done()
			_ = msrv.Close()
		}()
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	// Periodic snapshots bound the state a crash (as opposed to a clean
	// shutdown) can lose to one interval; a restarted node then resumes
	// from recent state instead of the last manual save.
	if interval > 0 {
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := srv.SaveSnapshot(data); err != nil {
						log.Printf("periodic snapshot: %v", err)
					} else {
						log.Printf("snapshotted %d keys to %s", srv.Len(), data)
					}
				}
			}
		}()
	}

	// SIGINT/SIGTERM cancels ctx: snapshot the shard, then close the
	// server, which unblocks Serve below for a clean exit.
	go func() {
		<-ctx.Done()
		if data != "" {
			if err := srv.SaveSnapshot(data); err != nil {
				log.Printf("snapshot: %v", err)
			} else {
				log.Printf("snapshotted %d keys to %s", srv.Len(), data)
			}
		}
		log.Printf("shutting down (%d keys stored)", srv.Len())
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()

	log.Printf("lht-node serving on %s", ln.Addr())
	return srv.Serve(ln)
}

// repairLoop periodically scrubs the shared index with re-replication
// enabled, dialing the cluster fresh each pass so the routing ring
// always reflects the latest gossip view. Failures are logged and
// retried next tick — a down peer must never take the node with it.
func repairLoop(ctx context.Context, cfg nodeConfig) {
	t := time.NewTicker(cfg.repairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			pctx, cancel := context.WithTimeout(ctx, cfg.repairInterval)
			rep, err := repairOnce(pctx, cfg)
			cancel()
			switch {
			case err != nil:
				log.Printf("repair scrub: %v", err)
			case !rep.Clean():
				log.Printf("repair %s", rep)
			}
		}
	}
}

// repairOnce runs one re-replicating scrub over the cluster. The client
// dials degraded (dead members start suspect, their redials backed off)
// and refreshes its routing ring from the gossip view first, so the
// scrub probes the owners the cluster actually routes to now.
func repairOnce(ctx context.Context, cfg nodeConfig) (*lht.ScrubReport, error) {
	client, err := tcpnet.Dial(ctx, tcpnet.ClusterConfig{
		Seeds:         cfg.gossipPeers,
		Replicas:      cfg.repairReplicas,
		DegradedStart: true,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()
	if err := client.RefreshView(ctx); err != nil {
		log.Printf("repair view refresh: %v", err)
	}
	ix, err := lht.New(client,
		lht.WithRereplication(true), lht.WithPolicy(lht.DefaultPolicy()))
	if err != nil {
		return nil, err
	}
	return ix.ScrubContext(ctx)
}
