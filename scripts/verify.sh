#!/usr/bin/env bash
# Tier-1 verification, runnable with no network and no crates.io cache:
# the workspace has zero external dependencies, so a clean checkout
# must build and test with --offline --locked. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --locked
cargo clippy --all-targets --offline --locked -- -D warnings
cargo fmt --all -- --check
cargo test -q --offline --workspace

# The concurrency and server suites are timing-sensitive: run them
# again in release so contention bugs that hide under debug-build
# pacing still get a shot. The server suite binds ephemeral ports
# (127.0.0.1:0) only, so parallel CI runs don't collide. The executor
# suite also reruns in release: its stream-vs-oracle match sets,
# stream-vs-snapshot counter comparisons, and limit-pushdown page
# counts are exactly the kind of thing optimized codegen could perturb.
cargo test --release --test concurrency --offline --locked
cargo test --release --test server --offline --locked
cargo test --release --test executor_stream --offline --locked
# The server crate's unit suites (HTTP parser, LRU/plan/result caches)
# reruns in release: cache sharding and the keep-alive wire formats are
# exactly where optimized codegen could perturb behaviour.
cargo test --release -p prix-server --offline --locked

# The crash-consistency harness reruns in release too: its ~330 seeded
# kill-point iterations (including kills inside the online-ingest
# publish path) cover far more syscall interleavings per second there,
# and optimized codegen must not perturb the recovery protocol. The
# snapshot-isolation property suite reruns for the same reason: reader
# threads race a publishing writer, and the races only get tight under
# optimized codegen.
cargo test --release --test crash_recovery --offline --locked
cargo test --release --test snapshot_isolation --offline --locked
# The segment-lifecycle suite reruns in release for the same reasons:
# its crash iterations sweep kill points through bulk rebuild and
# compaction, and the byte-determinism tests compare segment files an
# optimizing build must still produce identically.
cargo test --release --test segments --offline --locked

# End-to-end smoke: index a tiny corpus, start `prix serve` on an
# ephemeral port, hit /healthz and /metrics over plain bash /dev/tcp,
# then POST /shutdown and require a clean exit 0.
cargo build --release -p prix-cli --offline --locked
PRIX=target/release/prix
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

"$PRIX" gen dblp "$SMOKE/corpus" --scale 0.01 >/dev/null
# --alpha 4: dynamic labeling, so the later `prix add` and live-ingest
# smokes have trie-scope headroom to actually accept documents.
"$PRIX" index --alpha 4 "$SMOKE/db.prix" "$SMOKE"/corpus/*.xml >/dev/null

"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 >"$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!

# The first line printed is "listening on http://127.0.0.1:PORT".
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "serve never reported its port" >&2; cat "$SMOKE/serve.log" >&2; exit 1; }

http() { # http <request-target> [method] [body] — one request, prints the response
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  if [ $# -ge 3 ]; then
    printf '%s %s HTTP/1.1\r\nHost: prix\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' \
      "$2" "$1" "${#3}" "$3" >&3
  else
    printf '%s %s HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n' "${2:-GET}" "$1" >&3
  fi
  cat <&3
  exec 3>&- 3<&-
}

HEALTH=$(http /healthz)
grep -q '200 OK' <<<"$HEALTH" || { echo "healthz failed" >&2; exit 1; }
METRICS=$(http /metrics)
grep -q 'prix_http_requests_total' <<<"$METRICS" || { echo "metrics failed" >&2; exit 1; }
grep -q 'prix_cache_hit_ratio' <<<"$METRICS" || { echo "cache metrics missing" >&2; exit 1; }

# Keep-alive smoke: two requests down ONE socket. The first response
# must not close the connection; the second (Connection: close) ends
# it. Both must be 200s.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: prix\r\n\r\nGET /healthz HTTP/1.1\r\nHost: prix\r\nConnection: close\r\n\r\n' >&3
KEEPALIVE=$(cat <&3)
exec 3>&- 3<&-
[ "$(grep -c '200 OK' <<<"$KEEPALIVE")" = 2 ] || { echo "keep-alive smoke: expected two 200s on one socket" >&2; echo "$KEEPALIVE" >&2; exit 1; }
grep -qi 'connection: keep-alive' <<<"$KEEPALIVE" || { echo "keep-alive smoke: first response closed the connection" >&2; exit 1; }
echo "keep-alive smoke OK (two 200s, one socket)"

# Forced-engine smoke: the same query answered by the routed default
# and with ?engine=twigstackxb / ?engine=vist must return the identical
# match payload (the router canonicalizes every engine's matches), and
# the planner metrics must record the choices.
EQ='/query?xp=%2F%2Fwww%2Furl&limit=0'
match_json() { sed -n 's/.*"matches":\(.*\)}$/\1/p' <<<"$1"; }
ROUTED=$(http "$EQ")
grep -q '200 OK' <<<"$ROUTED" || { echo "forced-engine smoke: routed query failed" >&2; exit 1; }
grep -q '"engine":"prix_' <<<"$ROUTED" || { echo "forced-engine smoke: no engine field" >&2; echo "$ROUTED" >&2; exit 1; }
for ENG in twigstackxb vist; do
  FORCED=$(http "$EQ&engine=$ENG")
  grep -q '200 OK' <<<"$FORCED" || { echo "forced-engine smoke: engine=$ENG failed" >&2; echo "$FORCED" >&2; exit 1; }
  grep -q "\"engine\":\"$ENG\"" <<<"$FORCED" || { echo "forced-engine smoke: engine=$ENG did not run" >&2; echo "$FORCED" >&2; exit 1; }
  [ "$(match_json "$FORCED")" = "$(match_json "$ROUTED")" ] || {
    echo "forced-engine smoke: engine=$ENG matches differ from routed PRIX" >&2
    echo "routed: $(match_json "$ROUTED")" >&2
    echo "forced: $(match_json "$FORCED")" >&2
    exit 1
  }
  if [ "$ENG" = twigstackxb ]; then
    # The alternative engines build one substrate at a time: forcing
    # TwigStackXB builds the TwigStack substrate once and no ViST.
    ALTMETRICS=$(http /metrics)
    for LINE in 'prix_alt_rebuild_total{engine="twigstack"} 1' 'prix_alt_rebuild_total{engine="vist"} 0' \
      'prix_alt_rebuild_seconds_total{engine="twigstack"} [0-9.]*[1-9][0-9.]*' 'prix_alt_rebuild_seconds_total{engine="vist"} 0'; do
      grep -qx "$LINE" <<<"$ALTMETRICS" || { echo "forced-engine smoke: no metrics line matching \`$LINE\`" >&2; exit 1; }
    done
  fi
done
PLANMETRICS=$(http /metrics)
grep -q 'prix_planner_engine_chosen_total{engine="twigstackxb"} 1' <<<"$PLANMETRICS" || {
  echo "forced-engine smoke: planner metrics missing twigstackxb choice" >&2; exit 1;
}
echo "forced-engine smoke OK (twigstackxb + vist bit-identical to routed)"

http /shutdown POST >/dev/null

wait "$SERVE_PID" || { echo "serve exited non-zero" >&2; cat "$SMOKE/serve.log" >&2; exit 1; }
grep -q 'shutdown complete' "$SMOKE/serve.log" || { echo "no clean shutdown message" >&2; exit 1; }
echo "serve smoke OK (port $PORT)"

# Crash-safety smoke with a real SIGKILL: start an ingest (`prix add`)
# into the durable database, kill the process mid-flight, and require
# that fsck recovers to a clean state and queries still answer. The
# kill races the ingest — landing before, during, or after the save are
# all valid outcomes the WAL must absorb.
for i in 1 2 3; do
  "$PRIX" add "$SMOKE/db.prix" "$SMOKE"/corpus/*.xml >/dev/null 2>&1 &
  ADD_PID=$!
  sleep 0.0$((RANDOM % 10)) || true
  kill -9 "$ADD_PID" 2>/dev/null || true
  wait "$ADD_PID" 2>/dev/null || true
  "$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after SIGKILL #$i" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
  grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after SIGKILL #$i" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
done
"$PRIX" query "$SMOKE/db.prix" "//dblp" >/dev/null || { echo "query failed after crash recovery" >&2; exit 1; }
echo "crash smoke OK (3 SIGKILLs absorbed)"

# Live-ingest smoke: restart the server with --ingest, POST one
# document over /dev/tcp, and require the very next query to count it —
# the POST returns only after its epoch is published, so sequential
# read-your-writes must hold. Then a clean shutdown and fsck: the
# ingested document must be durable, not just visible.
"$PRIX" serve "$SMOKE/db.prix" --addr 127.0.0.1:0 --ingest >"$SMOKE/ingest.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/ingest.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "ingest serve never reported its port" >&2; cat "$SMOKE/ingest.log" >&2; exit 1; }

Q='/query?xp=%2F%2Fwww%2Furl&limit=0' # //www/url, default cap lifted
count_of() { sed -n 's/.*"count":\([0-9]*\).*/\1/p' <<<"$1"; }
BEFORE=$(count_of "$(http "$Q")")
[ -n "$BEFORE" ] || { echo "live-ingest: query before POST returned no count" >&2; exit 1; }
DOC='<www><key>smoke/ingest</key><editor>Verify Smoke</editor><url>http://example.org/smoke</url></www>'
RESP=$(http /documents POST "$DOC")
grep -q '200 OK' <<<"$RESP" || { echo "live-ingest: POST /documents failed" >&2; echo "$RESP" >&2; exit 1; }
grep -q '"epoch"' <<<"$RESP" || { echo "live-ingest: POST response carries no epoch" >&2; echo "$RESP" >&2; exit 1; }
AFTER=$(count_of "$(http "$Q")")
[ "$AFTER" = "$((BEFORE + 1))" ] || { echo "live-ingest: //www/url count $BEFORE -> $AFTER, expected +1" >&2; exit 1; }
http /shutdown POST >/dev/null

wait "$SERVE_PID" || { echo "ingest serve exited non-zero" >&2; cat "$SMOKE/ingest.log" >&2; exit 1; }
grep -q 'shutdown complete' "$SMOKE/ingest.log" || { echo "no clean shutdown after ingest" >&2; exit 1; }
"$PRIX" fsck "$SMOKE/db.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after live ingest" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "live-ingest smoke OK (count $BEFORE -> $AFTER on port $PORT)"

# Segment lifecycle smoke: bulk-index the corpus into a fresh database,
# verify the segments, grow a mutable delta with `prix add`, serve and
# query it through segments + delta over /dev/tcp, then compact and
# require the answer bit-identical — same matches before and after the
# delta folds into generation 2 — and a clean fsck at the end.
"$PRIX" index --bulk --alpha 4 "$SMOKE/seg.prix" "$SMOKE"/corpus/*.xml >"$SMOKE/bulk.log"
grep -q 'generation 1' "$SMOKE/bulk.log" || { echo "bulk index did not report generation 1" >&2; cat "$SMOKE/bulk.log" >&2; exit 1; }
"$PRIX" segments "$SMOKE/seg.prix" --verify >"$SMOKE/segments.log"
grep -q 'segments: clean' "$SMOKE/segments.log" || { echo "segments --verify not clean after bulk index" >&2; cat "$SMOKE/segments.log" >&2; exit 1; }

"$PRIX" add "$SMOKE/seg.prix" "$SMOKE"/corpus/doc00000*.xml >/dev/null

"$PRIX" serve "$SMOKE/seg.prix" --addr 127.0.0.1:0 >"$SMOKE/seg-serve.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/seg-serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "segment serve never reported its port" >&2; cat "$SMOKE/seg-serve.log" >&2; exit 1; }
SEGQ=$(http "$Q")
grep -q '200 OK' <<<"$SEGQ" || { echo "query against bulk-built database failed" >&2; echo "$SEGQ" >&2; exit 1; }
grep -q '"seg_block_reads"' <<<"$SEGQ" || { echo "query response carries no segment I/O counters" >&2; exit 1; }
SEGMETRICS=$(http /metrics)
grep -q 'prix_engine_generation 1' <<<"$SEGMETRICS" || { echo "metrics missing generation gauge" >&2; exit 1; }
grep -q 'prix_engine_pinned_epochs' <<<"$SEGMETRICS" || { echo "metrics missing pinned-epochs gauge" >&2; exit 1; }
http /shutdown POST >/dev/null
wait "$SERVE_PID" || { echo "segment serve exited non-zero" >&2; cat "$SMOKE/seg-serve.log" >&2; exit 1; }

# Bit-identity across compaction: the match payload (doc -> embedding
# lines plus the match count) must not change by one byte.
match_payload() { # match_payload <out-file>
  { head -1 "$1" | sed 's/ in .*//'; grep '^  doc ' "$1" || true; }
}
"$PRIX" query "$SMOKE/seg.prix" "//www/url" --limit 0 >"$SMOKE/q-before.txt"
"$PRIX" compact "$SMOKE/seg.prix" >"$SMOKE/compact.log"
grep -q 'into generation 2' "$SMOKE/compact.log" || { echo "compact did not produce generation 2" >&2; cat "$SMOKE/compact.log" >&2; exit 1; }
"$PRIX" query "$SMOKE/seg.prix" "//www/url" --limit 0 >"$SMOKE/q-after.txt"
match_payload "$SMOKE/q-before.txt" >"$SMOKE/m-before.txt"
match_payload "$SMOKE/q-after.txt" >"$SMOKE/m-after.txt"
cmp -s "$SMOKE/m-before.txt" "$SMOKE/m-after.txt" || {
  echo "query answer changed across compaction" >&2
  diff "$SMOKE/m-before.txt" "$SMOKE/m-after.txt" >&2 || true
  exit 1
}
"$PRIX" fsck "$SMOKE/seg.prix" >"$SMOKE/fsck.log" || { echo "fsck failed after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean after compaction" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "segment smoke OK (bulk -> add -> compact bit-identical, fsck clean)"

# Value-predicate smoke: generate the shop scenario, index it (the
# value index is built alongside the structural ones), and require the
# same predicate answer from the CLI and from /query on a fresh server
# — bit-identical match lists — then an fsck, which also verifies the
# valix pages.
"$PRIX" gen shop "$SMOKE/shop" --scale 0.05 >/dev/null
"$PRIX" index "$SMOKE/shop.prix" "$SMOKE"/shop/*.xml >/dev/null
CLI_PRED=$("$PRIX" query "$SMOKE/shop.prix" '//item[price < 10]' --limit 0)
grep -q '^7 match(es)' <<<"$CLI_PRED" || { echo "predicate smoke: CLI expected the 7 planted matches" >&2; echo "$CLI_PRED" >&2; exit 1; }
CLI_MATCHES=$(sed -n 's/^  doc \([0-9]*\) -> nodes \[\(.*\)\]$/\1:[\2]/p' <<<"$CLI_PRED" | tr -d ' ')
[ -n "$CLI_MATCHES" ] || { echo "predicate smoke: CLI printed no match lines" >&2; exit 1; }

"$PRIX" serve "$SMOKE/shop.prix" --addr 127.0.0.1:0 >"$SMOKE/shop-serve.log" 2>&1 &
SERVE_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|^listening on http://127\.0\.0\.1:\([0-9]*\)$|\1|p' "$SMOKE/shop-serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "shop serve never reported its port" >&2; cat "$SMOKE/shop-serve.log" >&2; exit 1; }
# CLI and server explain run the same `EngineSnapshot::explain`: the
# text must be byte-identical. Asked before any /query, so the planner
# statistics both sides read are still the ones on disk.
"$PRIX" explain "$SMOKE/shop.prix" '//item[price < 10]' >"$SMOKE/explain-cli.txt"
http '/explain?xp=%2F%2Fitem%5Bprice%20%3C%2010%5D' >"$SMOKE/explain-http.txt"
grep -q '200 OK' "$SMOKE/explain-http.txt" || { echo "explain smoke: /explain failed" >&2; cat "$SMOKE/explain-http.txt" >&2; exit 1; }
sed '1,/^\r$/d' "$SMOKE/explain-http.txt" >"$SMOKE/explain-body.txt"
cmp -s "$SMOKE/explain-cli.txt" "$SMOKE/explain-body.txt" || {
  echo "explain smoke: CLI and /explain differ" >&2
  diff "$SMOKE/explain-cli.txt" "$SMOKE/explain-body.txt" >&2 || true
  exit 1
}
# //item[price < 10], URL-encoded.
HTTP_PRED=$(http '/query?xp=%2F%2Fitem%5Bprice%20%3C%2010%5D&limit=0')
grep -q '200 OK' <<<"$HTTP_PRED" || { echo "predicate smoke: /query failed" >&2; echo "$HTTP_PRED" >&2; exit 1; }
HTTP_MATCHES=$(grep -o '{"doc":[0-9]*,"embedding":\[[0-9,]*\]}' <<<"$HTTP_PRED" \
  | sed 's/{"doc":\([0-9]*\),"embedding":\(\[[0-9,]*\]\)}/\1:\2/')
[ "$CLI_MATCHES" = "$HTTP_MATCHES" ] || {
  echo "predicate smoke: CLI and /query answers differ" >&2
  echo "cli:  $CLI_MATCHES" >&2
  echo "http: $HTTP_MATCHES" >&2
  exit 1
}
SHOPMETRICS=$(http /metrics)
grep -q 'prix_valix_probes_total [1-9]' <<<"$SHOPMETRICS" || { echo "predicate smoke: valix probe counter never moved" >&2; exit 1; }
http /shutdown POST >/dev/null
wait "$SERVE_PID" || { echo "shop serve exited non-zero" >&2; cat "$SMOKE/shop-serve.log" >&2; exit 1; }
"$PRIX" fsck "$SMOKE/shop.prix" >"$SMOKE/fsck.log" || { echo "fsck failed on the shop database" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'valix: .* ok' "$SMOKE/fsck.log" || { echo "fsck did not verify the valix" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
grep -q 'fsck: clean' "$SMOKE/fsck.log" || { echo "fsck not clean on the shop database" >&2; cat "$SMOKE/fsck.log" >&2; exit 1; }
echo "value-predicate smoke OK (CLI and /query bit-identical, CLI and /explain byte-identical, fsck clean)"

# Perf trajectory: the bulk-build bench asserts its acceptance criteria
# in code (bulk >= 3x the incremental path, cold-query segment reads
# strictly below the buffer-pool path) and records the medians.
# --json needs an absolute path: cargo runs the bench binary with the
# package directory as its cwd.
cargo bench -p prix-bench --bench bulk_build --offline --locked -- --json "$PWD/BENCH_bulk_build.json"
[ -s BENCH_bulk_build.json ] || { echo "bench did not write BENCH_bulk_build.json" >&2; exit 1; }
echo "bulk-build bench OK (BENCH_bulk_build.json written)"

# The routing bench asserts in code that the planner picks a non-PRIX
# engine for the rare-ancestor class and that this engine beats forced
# PRIX on wall clock.
cargo bench -p prix-bench --bench engine_routing --offline --locked -- --json "$PWD/BENCH_engine_routing.json"
[ -s BENCH_engine_routing.json ] || { echo "bench did not write BENCH_engine_routing.json" >&2; exit 1; }
echo "engine-routing bench OK (BENCH_engine_routing.json written)"

# The value-predicate bench asserts in code that a ~1%-selectivity
# predicate does strictly fewer page reads and lower median latency
# than structural-match-then-post-filter, with the gap compounding
# under --limit.
cargo bench -p prix-bench --bench value_predicates --offline --locked -- --json "$PWD/BENCH_value_predicates.json"
[ -s BENCH_value_predicates.json ] || { echo "bench did not write BENCH_value_predicates.json" >&2; exit 1; }
echo "value-predicates bench OK (BENCH_value_predicates.json written)"
