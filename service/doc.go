// Package service turns the containerdrone SDK into a long-running,
// multi-tenant campaign server: campaignd. Clients POST versioned
// JSON CampaignRequests; the server validates them, enqueues them onto
// a bounded job queue feeding a fleet of persistent workers (each job
// runs on the SDK's warm-pool campaign engine, so warm reuse and
// prefix-sharing forks apply across that job's runs; nothing warm
// carries from one job to the next), and streams per-run records back
// over Server-Sent Events plus final aggregates over plain JSON.
//
// The server survives heavy concurrent traffic by design rather than
// by luck:
//
//   - Cheap checks first: submit decodes strictly, checks the fields,
//     then the run cap (Config.MaxRunsPerJob, campaignd -max-runs, which
//     can only lower the engine's hard ceilings of 65,536 grid points
//     and 1,048,576 runs), then the tenant's quota, and only then
//     builds and validates every grid cell's configuration. A bad cell
//     gets 400 but spends the tenant's token.
//   - Per-tenant token-bucket quotas (rate + burst) and max-in-flight
//     caps. A tenant over quota gets 429 with a Retry-After hint; one
//     tenant's burst cannot starve another's steady trickle.
//   - Queue backpressure: the job queue is bounded, and a full queue
//     rejects with 429 + Retry-After instead of buffering unboundedly.
//   - Per-request deadlines: every job runs under a context deadline
//     (request-supplied, clamped to a server maximum) propagated
//     through Sim.Run, so a runaway request returns a partial result
//     instead of pinning a worker forever.
//   - Graceful drain: Shutdown stops accepting work (503), lets every
//     accepted job run to completion, then stops the listener — zero
//     accepted jobs are dropped on SIGTERM.
//   - Observability: /metrics reports queue depth, in-flight count,
//     per-tenant accept/reject counters, runs/s, p50/p99 job latency,
//     and the crash-only counters (runs_failed, worker_restarts,
//     jobs_retried, journal_replays); /healthz flips to 503 the moment
//     drain begins so load balancers stop routing before the listener
//     closes.
//
// # Endpoints
//
//	POST /v1/campaigns            submit a CampaignRequest; 202 + SubmitResponse
//	POST /v1/campaigns?wait=1     submit and block until the job finishes; 200 + JobStatus
//	GET  /v1/jobs/{id}            JobStatus (full CampaignResult once done)
//	GET  /v1/jobs/{id}/records    SSE: one "record" event per completed run
//	                              (?from=N resumes the replay at index N; each
//	                              record frame carries its index as the SSE id),
//	                              then one terminal event — "done" with the
//	                              JobStatus, or "error" with the failed
//	                              JobStatus when the job did not survive
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET  /healthz                 200 "ok" serving, 503 "draining" during drain
//	GET  /metrics                 MetricsSnapshot JSON
//
// # Crash-only supervision
//
// The worker fleet is crash-only: a job that panics through the SDK
// boundary retires its worker, a replacement spawns under a restart-
// rate token bucket (restartBurst = 5 at once, then restartRate = 1
// per second — the crash-loop brake), and the job is re-queued
// maxJobRetries = 1 time before settling as failed. Because a
// campaign is a pure function of (request, seed), a retried job
// re-emits a byte-identical record stream, so SSE followers ride
// through the retry without duplicates or gaps; followers of a job
// that exhausts its retries receive the structured "error" terminal
// event instead of a hung stream. (Per-run panics inside the campaign
// engine never reach this layer: the engine quarantines them as
// per-run failure records.)
//
// # Durable job journal
//
// With Config.Journal set (campaignd -journal <dir>), accepted jobs
// survive process death. The journal is a write-ahead log of JSON
// objects, one per line, each after the CRC-32 (IEEE) of its JSON in 8
// hex digits:
//
//	1c2f5e0a {"op":"accept","job_id":"j-00000007","tenant":"team-a","request":{...}}
//	9b04d2e7 {"op":"done","job_id":"j-00000007"}
//
// Every append is a single write(2) followed by fsync, and the accept
// entry is durable before the submitter hears 202 — so an
// acknowledged job is always either settled (a matching done entry,
// written whatever terminal state it reached) or replayable. On boot,
// OpenJournal pairs accepts with dones, compacts the file down to the
// unmatched accepts (write-temp/fsync/rename, so a crash during
// compaction leaves the old or the new journal, never a mix), and
// skips every line whose checksum fails — the torn trailing line a
// mid-append crash leaves, or a line a bad disk damaged — so damage
// neither forges an entry nor hides the intact lines after it. (Bare
// JSON lines, from journals written before the checksum, are read as
// they are.) The server re-enqueues the pending jobs ahead of new
// submissions and resumes the job-ID sequence past them.
//
// The delivery contract is at-least-once, idempotent by job ID: a job
// that completed just before the crash but whose done entry never hit
// the disk is executed again under the same ID, and the deterministic
// campaign engine makes the re-execution produce identical results.
// The journal is a durability log, not a result store — results of
// jobs settled before a crash are forgotten with the process; only
// unsettled work replays.
//
// # Schema versioning policy
//
// Every request and response type carries a schema_version field,
// stamped with SchemaVersion on the way out and checked on the way
// in: a payload with a different version is rejected loudly (400 at
// the server, ErrSchemaVersion at the client) instead of being
// half-read. Decoders reject unknown fields for the same reason — a
// misspelled knob must fail the request, not silently fly a default.
//
// The version bumps only on a breaking change: a field removed or
// renamed, a type changed, or semantics altered for an existing
// field. Adding an optional field is NOT a bump — older senders keep
// working because absent fields take zero values, and older readers
// that reject unknown fields are expected to be upgraded before the
// servers that send to them (upgrade order: readers first). When a
// bump does happen, the server answers old-version payloads with a
// 400 naming both versions, so mixed fleets fail observably at the
// boundary rather than corrupting results.
//
// The swarm work is a worked example of the policy, on both sides of
// it. This service schema stayed at v1: the swarm knobs arrive as
// ordinary named params ("drones", "fleet.spacing", "attack.member",
// "attack.target", "fault.member", "fault.from-member"), which is
// the additive case — an old client simply never sends them. The
// SDK's config/result schema (containerdrone.SchemaVersion), a
// separate version with its own range check, DID bump to v2, even
// though its new fields are also additive and v1 payloads are still
// read as v2 defaults (one drone, member 0 everywhere). The
// asymmetry is semantic: a v2 Result for a multi-drone run reports
// aggregates — crashed, switched, garbage_pkts — that now summarize N
// members, with the per-member story only in the new members array. A
// v1 reader consuming that unawares would mis-attribute one
// follower's crash to the whole fleet, which is exactly the
// "semantics altered for an existing field" clause above.
package service
