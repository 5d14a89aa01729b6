package lht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/record"
	"lht/internal/tcpnet"
)

// callLog records the substrate calls of one client as "op key": a read
// is a get or a probe, whichever the substrate takes. A key in lie has its
// first read answered with the value given, as a restructure racing the
// read would answer it.
type callLog struct {
	mu    sync.Mutex
	calls []string
	lie   map[string]dht.Value
}

func (l *callLog) read(key string) (dht.Value, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, "read "+key)
	v, ok := l.lie[key]
	delete(l.lie, key)
	return v, ok
}

func (l *callLog) note(op, key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, op+" "+key)
}

// localCalls is dht.Local with its reads and compare-and-swaps on record.
type localCalls struct {
	*dht.Local
	log *callLog
}

func (s localCalls) Get(ctx context.Context, key string) (dht.Value, error) {
	if v, ok := s.log.read(key); ok {
		return v, nil
	}
	return s.Local.Get(ctx, key)
}

func (s localCalls) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	s.log.note("putif", key)
	return s.Local.PutIf(ctx, key, v, ifEpoch)
}

// wireCalls is a tcpnet client with its reads, patches and
// compare-and-swaps on record.
type wireCalls struct {
	*tcpnet.Client
	log *callLog
}

func (s wireCalls) Get(ctx context.Context, key string) (dht.Value, error) {
	if v, ok := s.log.read(key); ok {
		return v, nil
	}
	return s.Client.Get(ctx, key)
}

func (s wireCalls) Probe(ctx context.Context, key string, hint uint64) (dht.Value, error) {
	if v, ok := s.log.read(key); ok {
		return v, nil
	}
	return s.Client.Probe(ctx, key, hint)
}

func (s wireCalls) Patch(ctx context.Context, key string, hint uint64, patch []byte) (dht.Value, error) {
	s.log.note("patch", key)
	return s.Client.Patch(ctx, key, hint, patch)
}

func (s wireCalls) PutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	s.log.note("putif", key)
	return s.Client.PutIf(ctx, key, v, ifEpoch)
}

// TestCachedFirstProbeOutcomes drives every outcome of a search's first
// probe when the leaf cache names it, over dht.Local and over tcpnet, and
// pins what each costs and what the cache learns: the Hits/Misses/Stale
// counts, the Cost, the calls made, and the cache's labels afterwards
// (most recently used first).
//
// The tree (theta 6, theta_merge 5): "#" holds #00 = {0.1, 0.2, 0.3} and
// "#0" holds #01 = {0.6, 0.8}. A writer without a cache changes it behind
// the client's back: split adds 0.65, 0.7 and 0.9, and #01 splits into
// #010 = {0.6, 0.65, 0.7} under "#01" and #011 = {0.8, 0.9}, which keeps
// the name "#0"; split+merge then has the client search again, which
// caches #010, and deletes 0.65 and 0.7, and #010 merges back into #01
// under "#0", its name "#01" removed; tear is split crashed before its
// remote put, which leaves #01 torn under "#0".
func TestCachedFirstProbeOutcomes(t *testing.T) {
	type want struct {
		hits, misses, stale int64
		cost                Cost
		calls               []string
		cache               []string
	}
	for _, row := range []struct {
		name   string
		warm   float64 // the client's search that caches the leaf
		change string  // the writer's change: "", "split", "split+merge" or "tear"
		lie    bool    // "#0"'s first read answers #010, beside a key of #01's far run
		insert bool    // the measured op is Insert(key), not Search(key)
		key    float64
		local  want
		wire   want // where it differs from local
	}{
		{name: "hit", warm: 0.8, key: 0.8,
			local: want{1, 0, 0, Cost{Lookups: 1, Steps: 1}, []string{"read #0"}, []string{"#01"}}},
		{name: "hit after a keep-half split", warm: 0.8, change: "split", key: 0.8,
			local: want{1, 0, 0, Cost{Lookups: 1, Steps: 1}, []string{"read #0"}, []string{"#011"}}},
		{name: "stale split", warm: 0.8, change: "split", key: 0.6,
			local: want{0, 0, 1, Cost{Lookups: 4, Steps: 4}, []string{"read #0", "read #0100110011", "read #0100", "read #01"}, []string{"#010", "#011"}}},
		// 0.999999's mu runs on in #01's last bit to depth D, so the lie
		// leaves no next name: the search starts over from [1, D].
		{name: "stale split, no next name", warm: 0.999999, lie: true, key: 0.999999,
			local: want{0, 0, 1, Cost{Lookups: 2, Steps: 2}, []string{"read #0", "read #0"}, []string{"#01", "#010"}}},
		{name: "stale merge", warm: 0.6, change: "split+merge", key: 0.6,
			local: want{0, 0, 1, Cost{Lookups: 3, Steps: 3}, []string{"read #01", "read #", "read #0"}, []string{"#01", "#00", "#011"}}},
		// The repair's remote put and in-place commit are not on the log;
		// its put is in the cost.
		{name: "torn cached leaf repaired", warm: 0.8, change: "tear", key: 0.8,
			local: want{1, 0, 0, Cost{Lookups: 3, Steps: 3}, []string{"read #0", "read #01"}, []string{"#010", "#011"}}},
		// Over tcpnet the patch rides the cached probe, and the peer's
		// LeafAck names #011; over dht.Local the probe reads #011 whole.
		{name: "applied ride naming another leaf", warm: 0.6, change: "split", insert: true, key: 0.85,
			local: want{1, 0, 0, Cost{Lookups: 2, Steps: 2}, []string{"read #0", "putif #0"}, []string{"#011", "#00"}},
			wire:  want{1, 0, 0, Cost{Lookups: 1, Steps: 1}, []string{"patch #0"}, []string{"#011", "#00"}}},
	} {
		for _, wire := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wire=%v", row.name, wire), func(t *testing.T) {
				log := &callLog{}
				var d, spy dht.DHT
				if wire {
					c, _ := startProbeCluster(t, 3)
					d, spy = c, wireCalls{c, log}
				} else {
					l := dht.NewLocal()
					d, spy = l, localCalls{l, log}
				}
				ctx := context.Background()
				cfg := Config{SplitThreshold: 6, MergeThreshold: 5, Depth: 20}
				writer, err := New(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				insert := func(ix *Index, keys ...float64) {
					t.Helper()
					for _, k := range keys {
						if _, err := ix.InsertContext(ctx, record.Record{Key: k}); err != nil {
							t.Fatalf("insert %g: %v", k, err)
						}
					}
				}
				insert(writer, 0.1, 0.2, 0.3, 0.6, 0.8)
				cfg.LeafCache = true
				client, err := New(spy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := client.Search(row.warm); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
				switch row.change {
				case "split":
					insert(writer, 0.65, 0.7, 0.9)
				case "split+merge":
					insert(writer, 0.65, 0.7, 0.9)
					if _, _, err := client.Search(row.warm); err != nil {
						t.Fatal(err)
					}
					for _, k := range []float64{0.65, 0.7} {
						if _, err := writer.Delete(k); err != nil {
							t.Fatal(err)
						}
					}
				case "tear":
					crash := dht.WithCrashPoints(d, dht.CrashRule{Op: dht.OpCreateIf, Key: func(k string) bool { return k == "#01" }, N: 1, Halt: true})
					torn, err := New(crash, Config{SplitThreshold: 6, MergeThreshold: 5, Depth: 20})
					if err != nil {
						t.Fatal(err)
					}
					insert(torn, 0.65, 0.7)
					if _, err := torn.Insert(record.Record{Key: 0.9}); err == nil {
						t.Fatal("the split did not crash")
					}
				}
				if row.lie {
					log.lie = map[string]dht.Value{"#0": &Bucket{Label: bitlabel.MustParse("#010"), Epoch: 1}}
				}
				log.calls = nil
				before := client.Metrics().Cache
				var cost Cost
				if row.insert {
					cost, err = client.Insert(record.Record{Key: row.key})
				} else {
					_, cost, err = client.Search(row.key)
				}
				if err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
				after := client.Metrics().Cache
				var cache []string
				for _, l := range cacheLabels(client) {
					cache = append(cache, l.String())
				}
				got := want{after.Hits - before.Hits, after.Misses - before.Misses, after.Stale - before.Stale, cost, log.calls, cache}
				w := row.local
				if wire && row.wire.calls != nil {
					w = row.wire
				}
				if fmt.Sprint(got) != fmt.Sprint(w) {
					t.Errorf("got  %+v\nwant %+v", got, w)
				}
			})
		}
	}
}
