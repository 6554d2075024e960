//! `serve_dense`: Dense continuous-batching serving on a `[2, 2, 2]` grid
//! with the serving sweep's model widths, under open-loop Poisson traffic
//! at one fixed rate below the knee.
//!
//! The request set is split into sessions; each session is one call to
//! `serve_with_config` on a fresh cluster. The timed loop cycles through
//! the sessions until the window closes, checking every repeat against the
//! first. Latencies are on the virtual clock: arrivals are timestamps on
//! it, so the traffic generator can never run late.

use std::time::Instant;

use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::{GridShape, InferModel, TesseractGrid, TransformerConfig};
use tesseract_serve::{
    generate, serve_with_config, RequestResult, RequestSpec, ServeConfig, ServeSummary,
    TrafficConfig,
};
use tesseract_tensor::{DenseTensor, ShadowTensor};

use crate::common::{guarded, run_config, secs, HostSamples, Opts, SetupClock, Stamp, MIB};
use crate::probes;
use crate::report::{median, sorted, tail, Report};
use crate::tracecheck;

const WEIGHT_SEED: u64 = 42;
/// Offered load of the timed sessions, requests per simulated second. The
/// `[2,2,2]` engine saturates near 1,100 req/s on this mix.
const RATE_RPS: f64 = 400.0;
/// Fixed rate ladder for goodput, requests per simulated second.
const LADDER_RPS: [f64; 5] = [200.0, 400.0, 800.0, 1600.0, 3200.0];
/// Goodput limit on the TTFT tail, simulated milliseconds.
const TTFT_TAIL_LIMIT_MS: f64 = 5.0;
/// A rate has a growing backlog when the median TTFT of the last quarter
/// of its arrivals exceeds this multiple of the first quarter's.
const BACKLOG_GROWTH: f64 = 2.0;
/// Set-up samples taken before the timed loop (one more is taken before
/// every session).
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy)]
struct Size {
    shape: GridShape,
    cfg: ServeConfig,
    sessions: usize,
    requests: usize,
    prompt_lens: (usize, usize),
    output_lens: (usize, usize),
}

fn size(tiny: bool) -> Size {
    let model = if tiny {
        TransformerConfig {
            batch: 4,
            seq: 8,
            hidden: 32,
            heads: 4,
            mlp_ratio: 4,
            layers: 1,
            eps: 1e-5,
        }
    } else {
        TransformerConfig {
            batch: 16,
            seq: 64,
            hidden: 256,
            heads: 8,
            mlp_ratio: 4,
            layers: 4,
            eps: 1e-5,
        }
    };
    let cfg = ServeConfig {
        model,
        with_bias: true,
        seed: WEIGHT_SEED,
        max_batch_tokens: 128,
        max_lane_requests: 8,
    };
    let shape = GridShape::new(2, 2);
    if tiny {
        Size { shape, cfg, sessions: 2, requests: 12, prompt_lens: (2, 6), output_lens: (2, 4) }
    } else {
        Size { shape, cfg, sessions: 8, requests: 32, prompt_lens: (16, 64), output_lens: (4, 16) }
    }
}

fn traffic(size: &Size, seed: u64, session: usize, rate: f64) -> Vec<RequestSpec> {
    generate(&TrafficConfig {
        rate,
        requests: size.requests,
        prompt_lens: size.prompt_lens,
        output_lens: size.output_lens,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ session as u64,
    })
}

/// Checks one session's outcome: every request completed in order on
/// every rank, and all ranks agree. Returns rank 0's results.
fn check_session(
    out: &RunOutput<ServeSummary>,
    traffic: &[RequestSpec],
) -> Result<Vec<RequestResult>, String> {
    let head = &out.results[0];
    if head.results.len() != traffic.len() {
        return Err(format!("{} of {} requests completed", head.results.len(), traffic.len()));
    }
    for (r, spec) in head.results.iter().zip(traffic) {
        let ordered = r.arrival <= r.first_token_time && r.first_token_time <= r.finish_time;
        if r.id != spec.id || r.output_len != spec.output_len || !ordered {
            return Err(format!("request {} finished inconsistently: {r:?}", spec.id));
        }
    }
    if out.results.iter().any(|s| s.results != head.results) {
        return Err("ranks disagree on request results".into());
    }
    Ok(head.results.clone())
}

/// Time per output token after the first, for requests with more than one.
fn tpot(r: &RequestResult) -> Option<f64> {
    (r.output_len > 1).then(|| (r.finish_time - r.first_token_time) / (r.output_len - 1) as f64)
}

/// Whether `results` (one session at one rate) meets the TTFT-tail limit
/// with no growing backlog; returns the tail TTFT alongside.
fn meets_slo(results: &[RequestResult]) -> (bool, f64) {
    let ttft: Vec<f64> = results.iter().map(RequestResult::ttft).collect();
    let (_, tail_s) = tail(&sorted(ttft.clone()));
    let q = (ttft.len() / 4).max(1);
    let growing = median(&ttft[ttft.len() - q..]) > BACKLOG_GROWTH * median(&ttft[..q]);
    (tail_s * 1e3 <= TTFT_TAIL_LIMIT_MS && !growing, tail_s)
}

/// The set-up of one session: its traffic, the cluster, the grid and the
/// inference model.
fn setup_once(run: &RunConfig, size: &Size, seed: u64) {
    let t = traffic(size, seed, 0, RATE_RPS);
    let (shape, cfg) = (size.shape, size.cfg);
    let out = run.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        InferModel::<DenseTensor>::new(ctx, &grid, cfg.model, cfg.with_bias, cfg.seed, 0)
            .layers
            .len()
    });
    std::hint::black_box((t, out.results));
}

/// One session's record from the timed loop.
struct Session {
    results: Vec<RequestResult>,
    out: RunOutput<ServeSummary>,
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let size = size(opts.tiny);
    let shape = size.shape;
    let run = run_config(shape.size());
    let m = size.cfg.model;
    rep.note(format!(
        "serve_dense: [{q},{q},{d}] grid, {w} rank threads; {l} layers, hidden {h}, {hd} heads; \
         {n} sessions x {r} requests, open-loop Poisson at {RATE_RPS} req/sim_s, prompts {p:?}, \
         outputs {o:?}; host op = one engine step, sim op = one request's TTFT; latencies on the virtual clock (arrivals are virtual timestamps, so the generator \
         never runs late)",
        q = shape.q,
        d = shape.d,
        w = shape.size(),
        l = m.layers,
        h = m.hidden,
        hd = m.heads,
        n = size.sessions,
        r = size.requests,
        p = size.prompt_lens,
        o = size.output_lens
    ));
    let mut setup = SetupClock::new(|| setup_once(&run, &size, opts.seed));
    for _ in 0..SETUP_REPS {
        setup.sample();
    }
    let traffics: Vec<Vec<RequestSpec>> =
        (0..size.sessions).map(|s| traffic(&size, opts.seed, s, RATE_RPS)).collect();
    let reqs = size.requests as u64;

    // Timed loop: cycle through the sessions until the window closes
    // (at least once through all of them). Host samples are per session,
    // per engine step.
    let window = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut first: Vec<Option<Session>> = (0..size.sessions).map(|_| None).collect();
    // Session CPU seconds, per session, for the tracing overhead.
    let mut session_cpu: Vec<Vec<f64>> = vec![Vec::new(); size.sessions];
    let mut host = HostSamples::default();
    let t = Instant::now();
    'cycle: for cycle in 0.. {
        for (s, tr) in traffics.iter().enumerate() {
            if cycle > 0 && secs(t) >= window {
                break 'cycle;
            }
            setup.sample();
            rep.attempt(reqs);
            let t0 = Stamp::now();
            let out = guarded(|| serve_with_config::<DenseTensor>(&run, shape, &size.cfg, tr));
            let (wall, cpu) = t0.elapsed();
            let checked = out
                .map_err(|e| format!("crashed: {e}"))
                .and_then(|out| check_session(&out, tr).map(|res| (out, res)))
                .and_then(|(out, res)| match &first[s] {
                    Some(f) if res != f.results => Err("rerun results differ".to_string()),
                    _ => Ok((out, res)),
                });
            let (out, res) = match checked {
                Ok(v) => v,
                Err(e) => {
                    rep.fail(reqs, format!("session {s}: {e}"));
                    continue;
                }
            };
            let steps = out.results[0].steps_total.max(1) as f64;
            let tokens = res.iter().map(|r| r.output_len).sum::<usize>() as f64;
            host.push_batch(wall, cpu, steps, tokens);
            session_cpu[s].push(cpu);
            if first[s].is_none() {
                first[s] = Some(Session { results: res, out });
            }
        }
    }

    // Dense results must equal Shadow results, session by session.
    for (s, f) in first.iter().enumerate() {
        let Some(f) = f else { continue };
        match guarded(|| serve_with_config::<ShadowTensor>(&run, shape, &size.cfg, &traffics[s])) {
            Ok(sh) => rep.check(sh.results[0].results == f.results, reqs, || {
                format!("session {s}: Dense and Shadow results differ")
            }),
            Err(e) => rep.fail(reqs, format!("session {s}: Shadow run crashed: {e}")),
        }
    }
    let saturated_kv = saturated_kv_mib(rep, &run, &size, &traffics);
    rep.set("ops_ok_frac", rep.ok_frac());
    host.report(rep, &setup);

    let done: Vec<&Session> = first.iter().flatten().collect();
    if done.is_empty() || host.op_cpu.is_empty() {
        return;
    }
    let results: Vec<&RequestResult> = done.iter().flat_map(|s| &s.results).collect();
    let ttft = sorted(results.iter().map(|r| r.ttft()).collect());
    let tpots = sorted(results.iter().filter_map(|r| tpot(r)).collect());
    let (tail_pct, ttft_tail) = tail(&ttft);
    // KV-cache peak per session, max over ranks.
    let kv_peaks: Vec<f64> = done
        .iter()
        .map(|s| {
            s.out.reports.iter().map(|r| r.kv_cache_bytes_peak).max().unwrap_or(0) as f64 / MIB
        })
        .collect();
    let kv_peak = kv_peaks.iter().copied().fold(0.0, f64::max);
    rep.set("sim_op_ms_p50", median(&ttft) * 1e3);
    rep.set("sim_op_ms_tail", ttft_tail * 1e3);
    if let Some(mib) = saturated_kv {
        rep.set("peak_mib", mib);
    }
    rep.set("sim.tail_pct", tail_pct);
    rep.set("serve.ttft_sim_ms_tail", ttft_tail * 1e3);
    if !tpots.is_empty() {
        rep.set("serve.tpot_sim_ms_p50", median(&tpots) * 1e3);
        rep.set("serve.tpot_sim_ms_tail", tail(&tpots).1 * 1e3);
    }
    rep.note(format!(
        "serve_dense: {} requests, TTFT p50 {:.4} / p{tail_pct:.1} {:.4} sim ms; {} timed sessions, \
         {:.3} wall ms / {:.3} CPU ms per engine step; KV peak {:.3} MiB (sessions \
         {:.3?}), at saturation {:.3?} MiB",
        results.len(),
        median(&ttft) * 1e3,
        ttft_tail * 1e3,
        host.op_cpu.len(),
        host.total_wall / host.ops * 1e3,
        host.total_cpu / host.ops * 1e3,
        kv_peak,
        kv_peaks,
        saturated_kv
    ));
    if !opts.trace {
        return;
    }

    // Engine counters, per session.
    let n = done.len() as f64;
    let lanes_per_rank = shape.q as f64;
    let sum = |f: fn(&ServeSummary) -> u64| -> f64 {
        done.iter().flat_map(|s| &s.out.results).map(f).sum::<u64>() as f64 / lanes_per_rank / n
    };
    let steps: f64 = done.iter().map(|s| s.out.results[0].steps_total as f64).sum::<f64>() / n;
    let lane_steps = sum(|s| s.prefill_steps) + sum(|s| s.decode_steps);
    let rows: usize = results.iter().map(|r| r.prompt_len + r.output_len - 1).sum();
    rep.set("serve.engine.steps", steps);
    rep.set("serve.engine.prefill_steps", sum(|s| s.prefill_steps));
    rep.set("serve.engine.decode_steps", sum(|s| s.decode_steps));
    rep.set("serve.engine.batch_tokens_mean", rows as f64 / n / lane_steps);
    rep.set("serve.engine.kv_peak_mib", kv_peak);
    let idle = done
        .iter()
        .map(|s| s.out.reports.iter().map(|r| r.idle_time).fold(0.0, f64::max))
        .sum::<f64>();
    rep.set("serve.engine.idle_sim_ms", idle / n * 1e3);
    rep.set("serve.engine.host_ms_per_step", median(&host.op_wall) * 1e3);

    // Traced session 0: comm and tensor counters, reconciliation, overhead.
    let traced_cfg = run.with_trace(true);
    rep.attempt(reqs);
    let t0 = Stamp::now();
    match guarded(|| serve_with_config::<DenseTensor>(&traced_cfg, shape, &size.cfg, &traffics[0]))
    {
        Ok(out) => {
            let (_, cpu) = t0.elapsed();
            let untraced = first[0].as_ref().map(|f| &f.results);
            let same = check_session(&out, &traffics[0]).ok().as_ref() == untraced;
            rep.check(same, reqs, || "traced session results differ from untraced".into());
            if !session_cpu[0].is_empty() {
                rep.set("trace.overhead_frac", cpu / median(&session_cpu[0]) - 1.0);
            }
            tracecheck::report_counters(rep, &out, 1.0, "serve");
            rep.note(format!(
                "serve_dense: traced session: {} collectives for {} requests ({:.1} per request)",
                out.comm.total_calls(),
                size.requests,
                out.comm.total_calls() as f64 / size.requests as f64
            ));
        }
        Err(e) => rep.fail(reqs, format!("traced session crashed: {e}")),
    }

    let goodput = goodput(rep, &run, &size, opts.seed);
    rep.set("serve.goodput_rps_sim", goodput);
    // Largest per-rank GEMM of serving: a full prefill batch through fc1.
    let gemm = (size.cfg.max_batch_tokens, m.hidden / shape.q, m.mlp_hidden() / shape.q);
    probes::report(rep, &run, shape, gemm);
}

/// KV-cache peak in MiB (max over ranks) when every request of the run
/// arrives at once: the memory the engine holds at saturation, where the
/// per-lane admission cap, not the arrival pattern, sets it. Shadow
/// backend, whose reports are pinned to Dense's.
fn saturated_kv_mib(
    rep: &mut Report,
    run: &RunConfig,
    size: &Size,
    traffics: &[Vec<RequestSpec>],
) -> Option<f64> {
    let flood: Vec<RequestSpec> = traffics
        .iter()
        .flatten()
        .enumerate()
        .map(|(id, r)| RequestSpec { id, arrival: (id + 1) as f64 * 1e-9, ..*r })
        .collect();
    let n = flood.len() as u64;
    rep.attempt(n);
    let out = guarded(|| serve_with_config::<ShadowTensor>(run, size.shape, &size.cfg, &flood));
    match out
        .map_err(|e| format!("crashed: {e}"))
        .and_then(|o| check_session(&o, &flood).map(|_| o))
    {
        Ok(o) => {
            let peak = o.reports.iter().map(|r| r.kv_cache_bytes_peak).max().unwrap_or(0);
            Some(peak as f64 / MIB)
        }
        Err(e) => {
            rep.fail(n, format!("saturated session: {e}"));
            None
        }
    }
}

/// The highest ladder rate at which one continuous trace of all the run's
/// requests (Shadow backend) keeps the TTFT tail within the limit with no
/// growing backlog; 0 if none does.
fn goodput(rep: &mut Report, run: &RunConfig, size: &Size, seed: u64) -> f64 {
    let long = Size { requests: size.sessions * size.requests, ..*size };
    let mut best = 0.0;
    for rate in LADDER_RPS {
        let tr = traffic(&long, seed, size.sessions, rate);
        let out = guarded(|| serve_with_config::<ShadowTensor>(run, size.shape, &size.cfg, &tr));
        let verdict = out
            .map_err(|e| format!("crashed: {e}"))
            .and_then(|out| check_session(&out, &tr))
            .map(|res| meets_slo(&res));
        rep.note(format!(
            "serve_dense: goodput ladder {rate} req/sim_s over {} requests: (meets, TTFT tail s) \
             {verdict:?} (limit {TTFT_TAIL_LIMIT_MS} sim ms)",
            tr.len()
        ));
        if matches!(verdict, Ok((true, _))) {
            best = rate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(arrival: f64, ttft: f64) -> RequestResult {
        RequestResult {
            id: 0,
            lane: 0,
            arrival,
            first_token_time: arrival + ttft,
            finish_time: arrival + ttft + 0.01,
            prompt_len: 4,
            output_len: 3,
        }
    }

    #[test]
    fn slo_rejects_a_slow_tail_and_a_growing_backlog() {
        let flat: Vec<RequestResult> = (0..40).map(|i| result(i as f64, 0.001)).collect();
        assert!(meets_slo(&flat).0);
        let slow: Vec<RequestResult> = (0..40).map(|i| result(i as f64, 0.009)).collect();
        assert!(!meets_slo(&slow).0);
        let growing: Vec<RequestResult> =
            (0..40).map(|i| result(i as f64, 0.0005 + 0.0001 * i as f64)).collect();
        assert!(!meets_slo(&growing).0);
        let t = tpot(&result(0.0, 0.001)).expect("three output tokens");
        assert!((t - 0.005).abs() < 1e-12, "{t}");
        assert_eq!(tpot(&RequestResult { output_len: 1, ..result(0.0, 0.001) }), None);
    }
}
