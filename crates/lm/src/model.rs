//! Decoder-only transformer (mini-GPT-2) over machine-code tokens.
//!
//! The paper fine-tunes a GPT-2-family model; at reproduction scale a
//! 2-layer, 64-dim decoder trained on-CPU captures the same pipeline. The
//! model carries a scalar value head used by the PPO phases (paper
//! §III-B.2/3) and ties its output embedding to `wte` like GPT-2.
//!
//! # Sampling paths
//!
//! [`Gpt::generate`] is the naive reference sampler: every token re-runs
//! a full `O(T)`-row forward through the autodiff tape, so sampling a
//! sequence costs `O(T²)` rows (plus tape bookkeeping). It is kept
//! deliberately un-optimised as the equality baseline.
//!
//! [`Gpt::generate_into`] is the production path: a tape-free incremental
//! decoder over a reusable [`KvCache`] arena. Each step computes only the
//! new token's row, attending over the cached per-layer K/V rows —
//! `O(T)` work per token instead of `O(T²)`. Its arithmetic mirrors the
//! tape ops row for row (same accumulation order, same skip-on-zero
//! matmul, same layer-norm epsilon, shared GELU scalar and
//! [`sample_row`]), so given the same RNG it emits **token-identical**
//! output to `generate` — a pinned invariant (`tests/tests/it_lm.rs`).
//! [`Gpt::generate_batch_into`] amortises the arena and output buffers
//! over many sequences.

use chatfuzz_autograd::{gelu_scalar, Tape, Tensor, Value};
use rand::Rng;

use crate::tokenizer::EOS;

/// Transformer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size (from the tokenizer).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layer: usize,
    /// Attention heads (`d_model % n_head == 0`).
    pub n_head: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Maximum sequence length (positional-table size).
    pub max_seq: usize,
}

impl GptConfig {
    /// The small configuration used throughout the experiments.
    pub fn small(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 64, n_layer: 2, n_head: 4, d_ff: 128, max_seq: 96 }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 16, n_layer: 1, n_head: 2, d_ff: 32, max_seq: 64 }
    }

    /// A compact configuration that still learns byte-position structure:
    /// used by the quick experiment scale.
    pub fn compact(vocab: usize) -> GptConfig {
        GptConfig { vocab, d_model: 32, n_layer: 2, n_head: 2, d_ff: 64, max_seq: 80 }
    }
}

#[derive(Debug, Clone)]
struct Block {
    ln1_g: Tensor,
    ln1_b: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    ln2_g: Tensor,
    ln2_b: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

/// The model: owned parameter tensors.
#[derive(Debug, Clone)]
pub struct Gpt {
    cfg: GptConfig,
    wte: Tensor,
    wpe: Tensor,
    blocks: Vec<Block>,
    lnf_g: Tensor,
    lnf_b: Tensor,
    vhead_w: Tensor,
    vhead_b: Tensor,
}

/// One forward pass's graph handles.
#[derive(Debug)]
pub struct Forward {
    /// Next-token logits `[T, vocab]`.
    pub logits: Value,
    /// Value-head estimates `[T, 1]` (PPO critic).
    pub values: Value,
    /// Parameter nodes in [`Gpt::param_count`] order, for gradient readout.
    pub params: Vec<Value>,
}

impl Gpt {
    /// Initialises a model with small Gaussian weights.
    pub fn new<R: Rng>(cfg: GptConfig, rng: &mut R) -> Gpt {
        assert!(cfg.d_model.is_multiple_of(cfg.n_head), "d_model must divide into heads");
        let std = 0.08;
        let block = |rng: &mut R| Block {
            ln1_g: Tensor::full(1, cfg.d_model, 1.0),
            ln1_b: Tensor::zeros(1, cfg.d_model),
            wq: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wk: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wv: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            wo: Tensor::randn(cfg.d_model, cfg.d_model, std, rng),
            ln2_g: Tensor::full(1, cfg.d_model, 1.0),
            ln2_b: Tensor::zeros(1, cfg.d_model),
            w1: Tensor::randn(cfg.d_model, cfg.d_ff, std, rng),
            b1: Tensor::zeros(1, cfg.d_ff),
            w2: Tensor::randn(cfg.d_ff, cfg.d_model, std, rng),
            b2: Tensor::zeros(1, cfg.d_model),
        };
        Gpt {
            cfg,
            wte: Tensor::randn(cfg.vocab, cfg.d_model, std, rng),
            wpe: Tensor::randn(cfg.max_seq, cfg.d_model, std, rng),
            blocks: (0..cfg.n_layer).map(|_| block(rng)).collect(),
            lnf_g: Tensor::full(1, cfg.d_model, 1.0),
            lnf_b: Tensor::zeros(1, cfg.d_model),
            vhead_w: Tensor::randn(cfg.d_model, 1, std, rng),
            vhead_b: Tensor::zeros(1, 1),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Number of parameter tensors (not scalars).
    pub fn param_count(&self) -> usize {
        4 + 12 * self.blocks.len() + 2
    }

    /// Total scalar parameter count.
    pub fn scalar_params(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// Parameter tensors in canonical order.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut v: Vec<&Tensor> = vec![&self.wte, &self.wpe];
        for b in &self.blocks {
            v.extend([
                &b.ln1_g, &b.ln1_b, &b.wq, &b.wk, &b.wv, &b.wo, &b.ln2_g, &b.ln2_b, &b.w1, &b.b1,
                &b.w2, &b.b2,
            ]);
        }
        v.extend([&self.lnf_g, &self.lnf_b, &self.vhead_w, &self.vhead_b]);
        v
    }

    /// Mutable parameter tensors in the same canonical order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v: Vec<&mut Tensor> = vec![&mut self.wte, &mut self.wpe];
        for b in &mut self.blocks {
            v.extend([
                &mut b.ln1_g,
                &mut b.ln1_b,
                &mut b.wq,
                &mut b.wk,
                &mut b.wv,
                &mut b.wo,
                &mut b.ln2_g,
                &mut b.ln2_b,
                &mut b.w1,
                &mut b.b1,
                &mut b.w2,
                &mut b.b2,
            ]);
        }
        v.extend([&mut self.lnf_g, &mut self.lnf_b, &mut self.vhead_w, &mut self.vhead_b]);
        v
    }

    /// Builds the forward graph for a token sequence.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty, longer than `max_seq`, or contains ids
    /// outside the vocabulary.
    pub fn forward(&self, tape: &mut Tape, tokens: &[u32]) -> Forward {
        assert!(!tokens.is_empty(), "empty sequence");
        assert!(tokens.len() <= self.cfg.max_seq, "sequence too long");
        let ids: Vec<usize> = tokens
            .iter()
            .map(|&t| {
                assert!((t as usize) < self.cfg.vocab, "token {t} out of vocab");
                t as usize
            })
            .collect();
        let positions: Vec<usize> = (0..ids.len()).collect();
        let hd = self.cfg.d_model / self.cfg.n_head;

        let mut params = Vec::with_capacity(self.param_count());
        let mut reg = |tape: &mut Tape, t: &Tensor| {
            let v = tape.param(t.clone());
            params.push(v);
            v
        };

        let wte = reg(tape, &self.wte);
        let wpe = reg(tape, &self.wpe);
        let tok_emb = tape.gather_rows(wte, &ids);
        let pos_emb = tape.gather_rows(wpe, &positions);
        let mut x = tape.add(tok_emb, pos_emb);

        for b in &self.blocks {
            let ln1_g = reg(tape, &b.ln1_g);
            let ln1_b = reg(tape, &b.ln1_b);
            let wq = reg(tape, &b.wq);
            let wk = reg(tape, &b.wk);
            let wv = reg(tape, &b.wv);
            let wo = reg(tape, &b.wo);
            let ln2_g = reg(tape, &b.ln2_g);
            let ln2_b = reg(tape, &b.ln2_b);
            let w1 = reg(tape, &b.w1);
            let b1 = reg(tape, &b.b1);
            let w2 = reg(tape, &b.w2);
            let b2 = reg(tape, &b.b2);

            let h = tape.layer_norm(x, ln1_g, ln1_b);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            let mut heads = Vec::with_capacity(self.cfg.n_head);
            for head in 0..self.cfg.n_head {
                let qh = tape.slice_cols(q, head * hd, hd);
                let kh = tape.slice_cols(k, head * hd, hd);
                let vh = tape.slice_cols(v, head * hd, hd);
                let scores = tape.matmul_nt(qh, kh);
                let scaled = tape.scale(scores, 1.0 / (hd as f32).sqrt());
                let att = tape.causal_softmax(scaled);
                heads.push(tape.matmul(att, vh));
            }
            let ctx = tape.concat_cols(&heads);
            let proj = tape.matmul(ctx, wo);
            x = tape.add(x, proj);

            let h2 = tape.layer_norm(x, ln2_g, ln2_b);
            let a1 = tape.matmul(h2, w1);
            let a1b = tape.add_row(a1, b1);
            let act = tape.gelu(a1b);
            let a2 = tape.matmul(act, w2);
            let a2b = tape.add_row(a2, b2);
            x = tape.add(x, a2b);
        }

        let lnf_g = reg(tape, &self.lnf_g);
        let lnf_b = reg(tape, &self.lnf_b);
        let vhead_w = reg(tape, &self.vhead_w);
        let vhead_b = reg(tape, &self.vhead_b);
        let hfinal = tape.layer_norm(x, lnf_g, lnf_b);
        let logits = tape.matmul_nt(hfinal, wte); // weight tying
        let vraw = tape.matmul(hfinal, vhead_w);
        let values = tape.add_row(vraw, vhead_b);
        Forward { logits, values, params }
    }

    /// Builds `forward` + cross-entropy next-token loss for one sequence.
    pub fn lm_loss(&self, tape: &mut Tape, tokens: &[u32]) -> (Value, Forward) {
        assert!(tokens.len() >= 2, "need at least two tokens for LM loss");
        let fwd = self.forward(tape, &tokens[..tokens.len() - 1]);
        let targets: Vec<usize> = tokens[1..].iter().map(|&t| t as usize).collect();
        let loss = tape.cross_entropy(fwd.logits, &targets);
        (loss, fwd)
    }

    /// Samples a continuation of `prompt` (temperature + top-k).
    ///
    /// Stops at `EOS` or after `max_new` tokens. The prompt is truncated
    /// from the left to fit the context window.
    pub fn generate<R: Rng>(
        &self,
        prompt: &[u32],
        max_new: usize,
        temperature: f32,
        top_k: usize,
        rng: &mut R,
    ) -> Vec<u32> {
        let mut tokens: Vec<u32> = prompt.to_vec();
        if tokens.is_empty() {
            tokens.push(crate::tokenizer::BOS);
        }
        let mut ranked = Vec::new();
        for _ in 0..max_new {
            let start = tokens.len().saturating_sub(self.cfg.max_seq);
            let window = &tokens[start..];
            let mut tape = Tape::new();
            let fwd = self.forward(&mut tape, window);
            let logits = tape.value(fwd.logits);
            let last = logits.row(logits.rows() - 1);
            let next = sample_row_with(last, temperature, top_k, rng, &mut ranked);
            tokens.push(next);
            if next == EOS {
                break;
            }
        }
        tokens
    }

    /// KV-cached sampling into a caller-owned buffer: token-identical to
    /// [`Gpt::generate`] under the same RNG, but each step runs only the
    /// new token's row against the cached keys/values instead of
    /// re-running the whole window (see the module docs). `out` receives
    /// prompt + continuation; the cache is reset on entry and reusable
    /// across calls, models permitting ([`KvCache::new`] shape).
    ///
    /// While the sequence still fits the context window only new rows
    /// run; once it exceeds `max_seq` the window slides and the cache is
    /// rebuilt per step (the naive path re-runs the window there too, so
    /// the speedup degrades gracefully to parity, never below).
    ///
    /// # Panics
    ///
    /// Panics if the cache was allocated for a different configuration or
    /// a token is outside the vocabulary.
    #[allow(clippy::too_many_arguments)] // mirrors `generate` + (cache, out)
    pub fn generate_into<R: Rng>(
        &self,
        prompt: &[u32],
        max_new: usize,
        temperature: f32,
        top_k: usize,
        rng: &mut R,
        cache: &mut KvCache,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(cache.cfg, self.cfg, "KV cache was allocated for a different model shape");
        out.clear();
        out.extend_from_slice(prompt);
        if out.is_empty() {
            out.push(crate::tokenizer::BOS);
        }
        cache.reset();
        let mut window_start = 0usize;
        for _ in 0..max_new {
            let start = out.len().saturating_sub(self.cfg.max_seq);
            if start != window_start {
                // The window slid: cached rows were computed under other
                // position embeddings — rebuild from the new start.
                cache.reset();
                window_start = start;
            }
            // Feed every not-yet-cached row of the current window; only
            // the last row's logits drive the sample, so only it projects
            // them. On the first iteration this is the whole prompt
            // (prefill), afterwards just the freshly appended token.
            for &token in &out[window_start + cache.len..] {
                self.push_row(cache, token);
            }
            self.project_logits(cache);
            let next = sample_row_with(&cache.logits, temperature, top_k, rng, &mut cache.ranked);
            out.push(next);
            if next == EOS {
                break;
            }
        }
    }

    /// Samples one continuation per prompt through a single shared
    /// [`KvCache`] arena, recycling the per-sequence output buffers in
    /// `outs`. Sequences are sampled in order from the shared RNG, so the
    /// result equals calling [`Gpt::generate_into`] per prompt — and
    /// therefore [`Gpt::generate`] — back to back.
    #[allow(clippy::too_many_arguments)] // mirrors `generate` + (cache, outs)
    pub fn generate_batch_into<R: Rng>(
        &self,
        prompts: &[Vec<u32>],
        max_new: usize,
        temperature: f32,
        top_k: usize,
        rng: &mut R,
        cache: &mut KvCache,
        outs: &mut Vec<Vec<u32>>,
    ) {
        outs.resize_with(prompts.len(), Vec::new);
        for (prompt, out) in prompts.iter().zip(outs.iter_mut()) {
            self.generate_into(prompt, max_new, temperature, top_k, rng, cache, out);
        }
    }

    /// Appends one token to the cache (position `cache.len()`) and leaves
    /// the next-token logits in `cache.logits`. The arithmetic mirrors
    /// [`Gpt::forward`]'s tape ops row for row — see the module docs for
    /// why that makes the two paths token-identical.
    ///
    /// # Panics
    ///
    /// Panics if the cache is full (`max_seq` rows) or `token` is out of
    /// vocabulary.
    pub fn decode_step(&self, cache: &mut KvCache, token: u32) {
        self.push_row(cache, token);
        self.project_logits(cache);
    }

    /// Appends one token's row to the cache (keys, values and the
    /// residual stream in `cache.x`) without projecting logits — the
    /// prefill rows before the last need nothing else.
    fn push_row(&self, cache: &mut KvCache, token: u32) {
        assert_eq!(cache.cfg, self.cfg, "KV cache was allocated for a different model shape");
        assert!(cache.len < self.cfg.max_seq, "KV cache is full (window must slide)");
        assert!((token as usize) < self.cfg.vocab, "token {token} out of vocab");
        let pos = cache.len;
        let d = self.cfg.d_model;
        let hd = d / self.cfg.n_head;
        let scale = 1.0 / (hd as f32).sqrt();

        // x = wte[token] + wpe[pos] (same add order as the tape).
        let tok_row = self.wte.row(token as usize);
        let pos_row = self.wpe.row(pos);
        for (x, (t, p)) in cache.x.iter_mut().zip(tok_row.iter().zip(pos_row)) {
            *x = t + p;
        }

        for (layer, b) in self.blocks.iter().enumerate() {
            // Attention half: norm, project the new row's q/k/v, cache
            // k/v, attend over everything cached so far.
            layer_norm_row(&cache.x, &b.ln1_g, &b.ln1_b, &mut cache.h);
            row_matmul(&cache.h, &b.wq, &mut cache.qrow);
            let k_row = &mut cache.k[layer][pos * d..(pos + 1) * d];
            row_matmul_into(&cache.h, &b.wk, k_row);
            let v_row = &mut cache.v[layer][pos * d..(pos + 1) * d];
            row_matmul_into(&cache.h, &b.wv, v_row);

            for head in 0..self.cfg.n_head {
                let hs = head * hd;
                // Scores against every cached key row (the causal row
                // `pos` of the full score matrix), then the same
                // max/exp/denominator softmax the tape applies.
                let qh = &cache.qrow[hs..hs + hd];
                for j in 0..=pos {
                    let kh = &cache.k[layer][j * d + hs..j * d + hs + hd];
                    let mut acc = 0.0;
                    for (x, y) in qh.iter().zip(kh) {
                        acc += x * y;
                    }
                    cache.att[j] = acc * scale;
                }
                let max = cache.att[..=pos].iter().cloned().fold(f32::MIN, f32::max);
                let mut denom = 0.0;
                for a in &mut cache.att[..=pos] {
                    *a = (*a - max).exp();
                    denom += *a;
                }
                for a in &mut cache.att[..=pos] {
                    *a /= denom;
                }
                // ctx_head = att · V (k ascending, skip-on-zero like the
                // tape's matmul).
                let ctx_head = &mut cache.ctx[hs..hs + hd];
                ctx_head.fill(0.0);
                for j in 0..=pos {
                    let a = cache.att[j];
                    if a == 0.0 {
                        continue;
                    }
                    let vh = &cache.v[layer][j * d + hs..j * d + hs + hd];
                    for (c, y) in ctx_head.iter_mut().zip(vh) {
                        *c += a * y;
                    }
                }
            }
            row_matmul(&cache.ctx, &b.wo, &mut cache.h);
            for (x, p) in cache.x.iter_mut().zip(&cache.h) {
                *x += p;
            }

            // Feed-forward half.
            layer_norm_row(&cache.x, &b.ln2_g, &b.ln2_b, &mut cache.h);
            row_matmul(&cache.h, &b.w1, &mut cache.ff);
            for (a, bias) in cache.ff.iter_mut().zip(b.b1.row(0)) {
                *a = gelu_scalar(*a + bias);
            }
            row_matmul(&cache.ff, &b.w2, &mut cache.h);
            for ((x, a), bias) in cache.x.iter_mut().zip(&cache.h).zip(b.b2.row(0)) {
                *x += a + bias;
            }
        }
        cache.len += 1;
    }

    /// Final norm + weight-tied logits of the last pushed row into
    /// `cache.logits` (matmul_nt row: plain ascending dot against every
    /// embedding row).
    fn project_logits(&self, cache: &mut KvCache) {
        layer_norm_row(&cache.x, &self.lnf_g, &self.lnf_b, &mut cache.h);
        for (j, l) in cache.logits.iter_mut().enumerate() {
            let wrow = self.wte.row(j);
            let mut acc = 0.0;
            for (x, y) in cache.h.iter().zip(wrow) {
                acc += x * y;
            }
            *l = acc;
        }
    }
}

/// Reusable arena for [`Gpt::generate_into`]: per-layer key/value rows of
/// the current window plus every scratch row the incremental decoder
/// needs. Allocate once per model shape, reuse across sequences — steady
/// state sampling is then allocation-free.
#[derive(Debug)]
pub struct KvCache {
    cfg: GptConfig,
    /// Cached rows (tokens fed so far within the current window).
    len: usize,
    /// Per layer: cached key rows, `max_seq × d_model` row-major.
    k: Vec<Vec<f32>>,
    /// Per layer: cached value rows.
    v: Vec<Vec<f32>>,
    // Scratch rows, reused every step.
    x: Vec<f32>,
    h: Vec<f32>,
    qrow: Vec<f32>,
    ctx: Vec<f32>,
    ff: Vec<f32>,
    att: Vec<f32>,
    /// Next-token logits of the last [`Gpt::decode_step`].
    logits: Vec<f32>,
    /// Sampler scratch: `(token, scaled logit)` pairs, ranked in place.
    ranked: Vec<(u32, f32)>,
}

impl KvCache {
    /// Allocates an arena for models of configuration `cfg`.
    pub fn new(cfg: GptConfig) -> KvCache {
        KvCache {
            cfg,
            len: 0,
            k: (0..cfg.n_layer).map(|_| vec![0.0; cfg.max_seq * cfg.d_model]).collect(),
            v: (0..cfg.n_layer).map(|_| vec![0.0; cfg.max_seq * cfg.d_model]).collect(),
            x: vec![0.0; cfg.d_model],
            h: vec![0.0; cfg.d_model.max(cfg.d_ff)],
            qrow: vec![0.0; cfg.d_model],
            ctx: vec![0.0; cfg.d_model],
            ff: vec![0.0; cfg.d_ff],
            att: vec![0.0; cfg.max_seq],
            logits: vec![0.0; cfg.vocab],
            ranked: Vec::with_capacity(cfg.vocab),
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards the cached rows (keeps the allocations).
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// The next-token logits left by the last [`Gpt::decode_step`].
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

/// One row of `Tensor::matmul`: `out[j] = Σ_k row[k]·w[k][j]`, `k`
/// ascending with the batched product's skip-on-zero, so the accumulation
/// is bit-identical to the tape's full-matrix forward.
fn row_matmul(row: &[f32], w: &Tensor, out: &mut Vec<f32>) {
    out.resize(w.cols(), 0.0);
    row_matmul_into(row, w, out);
}

fn row_matmul_into(row: &[f32], w: &Tensor, out: &mut [f32]) {
    assert_eq!(row.len(), w.rows(), "row_matmul dims");
    assert_eq!(out.len(), w.cols(), "row_matmul out dims");
    out.fill(0.0);
    for (k, &a) in row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(w.row(k)) {
            *o += a * b;
        }
    }
}

/// One row of the tape's layer norm: same mean/variance summation order,
/// same `1e-5` epsilon, same `xhat·gain + bias` form.
fn layer_norm_row(row: &[f32], gain: &Tensor, bias: &Tensor, out: &mut Vec<f32>) {
    const EPS: f32 = 1e-5;
    let n = row.len();
    out.resize(n, 0.0);
    let mean = row.iter().sum::<f32>() / n as f32;
    let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
    let rstd = 1.0 / (var + EPS).sqrt();
    for c in 0..n {
        out[c] = (row[c] - mean) * rstd * gain.get(0, c) + bias.get(0, c);
    }
}

/// Temperature + top-k sampling from a logit row.
///
/// Convenience form of the one sampler both decoders use; it allocates
/// its ranking scratch per call.
pub fn sample_row<R: Rng>(logits: &[f32], temperature: f32, top_k: usize, rng: &mut R) -> u32 {
    sample_row_with(logits, temperature, top_k, rng, &mut Vec::new())
}

/// [`sample_row`] over a caller-owned ranking buffer.
///
/// The shortlist is the `k` highest scaled logits ordered by value
/// descending, ties by token ascending — exactly the prefix a stable
/// descending sort yields — found with a partial selection, so only the
/// `k` survivors are sorted. A NaN logit ranks as `-inf` (zero weight):
/// NaN has no place in that order, and a comparison sort over it may
/// panic.
fn sample_row_with<R: Rng>(
    logits: &[f32],
    temperature: f32,
    top_k: usize,
    rng: &mut R,
    ranked: &mut Vec<(u32, f32)>,
) -> u32 {
    let temp = temperature.max(1e-4);
    ranked.clear();
    ranked.extend(
        logits
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, if l.is_nan() { f32::NEG_INFINITY } else { l / temp })),
    );
    let k = top_k.clamp(1, ranked.len());
    let order = |a: &(u32, f32), b: &(u32, f32)| {
        b.1.partial_cmp(&a.1).expect("NaN-free scores").then(a.0.cmp(&b.0))
    };
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k - 1, order);
    }
    ranked[..k].sort_unstable_by(order);
    // Scaled logits become their softmax weights in place.
    let shortlist = &mut ranked[..k];
    let max = shortlist[0].1;
    for (_, l) in shortlist.iter_mut() {
        *l = (*l - max).exp();
    }
    let total: f32 = shortlist.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    for &(idx, w) in shortlist.iter() {
        if draw < w {
            return idx;
        }
        draw -= w;
    }
    shortlist[k - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shapes() {
        let model = Gpt::new(GptConfig::tiny(24), &mut rng());
        let mut tape = Tape::new();
        let fwd = model.forward(&mut tape, &[1, 5, 9, 2]);
        assert_eq!(tape.value(fwd.logits).rows(), 4);
        assert_eq!(tape.value(fwd.logits).cols(), 24);
        assert_eq!(tape.value(fwd.values).rows(), 4);
        assert_eq!(tape.value(fwd.values).cols(), 1);
        assert_eq!(fwd.params.len(), model.param_count());
    }

    #[test]
    fn loss_decreases_under_training_steps() {
        use chatfuzz_autograd::{Adam, AdamConfig};
        let mut r = rng();
        let mut model = Gpt::new(GptConfig::tiny(12), &mut r);
        let seq: Vec<u32> = vec![1, 4, 5, 4, 5, 4, 5, 2];
        let mut adam = Adam::new(AdamConfig { lr: 3e-3, ..Default::default() });
        let loss_at = |model: &Gpt| {
            let mut tape = Tape::new();
            let (loss, _) = model.lm_loss(&mut tape, &seq);
            tape.value(loss).get(0, 0)
        };
        let initial = loss_at(&model);
        for _ in 0..60 {
            let mut tape = Tape::new();
            let (loss, fwd) = model.lm_loss(&mut tape, &seq);
            tape.backward(loss);
            let grads: Vec<_> = fwd
                .params
                .iter()
                .map(|p| {
                    tape.grad(*p).cloned().unwrap_or_else(|| {
                        let t = tape.value(*p);
                        chatfuzz_autograd::Tensor::zeros(t.rows(), t.cols())
                    })
                })
                .collect();
            let mut params = model.params_mut();
            adam.step(&mut params, &grads);
        }
        let trained = loss_at(&model);
        assert!(trained < initial * 0.5, "loss should halve: {initial} -> {trained}");
    }

    #[test]
    fn generation_is_bounded_and_in_vocab() {
        let model = Gpt::new(GptConfig::tiny(20), &mut rng());
        let out = model.generate(&[1], 16, 1.0, 8, &mut rng());
        assert!(out.len() <= 17);
        assert!(out.iter().all(|&t| t < 20));
    }

    /// The KV-cached sampler is token-identical to the naive path under
    /// the same RNG — across temperatures, top-k settings, and prompts
    /// long enough to slide the context window (the full sweep lives in
    /// `tests/tests/it_lm.rs`).
    #[test]
    fn cached_generation_matches_naive_token_for_token() {
        let model = Gpt::new(GptConfig::tiny(20), &mut rng());
        let mut cache = KvCache::new(*model.config());
        let mut out = Vec::new();
        for (prompt_len, max_new, temp, top_k) in
            [(1usize, 16usize, 1.0f32, 8usize), (5, 32, 0.7, 3), (60, 16, 1.3, 20), (0, 8, 0.2, 1)]
        {
            let prompt: Vec<u32> = (0..prompt_len as u32).map(|i| i % 20).collect();
            let naive = model.generate(&prompt, max_new, temp, top_k, &mut rng());
            model.generate_into(&prompt, max_new, temp, top_k, &mut rng(), &mut cache, &mut out);
            assert_eq!(out, naive, "prompt_len={prompt_len} max_new={max_new} temp={temp}");
        }
    }

    #[test]
    fn batch_sampling_equals_sequential_sampling() {
        let model = Gpt::new(GptConfig::tiny(16), &mut rng());
        let prompts: Vec<Vec<u32>> = (0..4).map(|i| vec![1, 3 + i]).collect();
        let mut cache = KvCache::new(*model.config());
        let mut outs = Vec::new();
        model.generate_batch_into(&prompts, 12, 0.9, 6, &mut rng(), &mut cache, &mut outs);
        let mut reference_rng = rng();
        for (prompt, out) in prompts.iter().zip(&outs) {
            let naive = model.generate(prompt, 12, 0.9, 6, &mut reference_rng);
            assert_eq!(out, &naive);
        }
    }

    #[test]
    #[should_panic(expected = "different model shape")]
    fn cache_rejects_mismatched_model() {
        let model = Gpt::new(GptConfig::tiny(16), &mut rng());
        let mut cache = KvCache::new(GptConfig::tiny(24));
        model.decode_step(&mut cache, 1);
    }

    /// The sampler as it was before the partial selection: a stable
    /// descending sort of every scaled logit, kept as the reference the
    /// production sampler must draw identically to.
    fn stable_sort_sample_row<R: Rng>(
        logits: &[f32],
        temperature: f32,
        top_k: usize,
        rng: &mut R,
    ) -> u32 {
        let temp = temperature.max(1e-4);
        let mut indexed: Vec<(usize, f32)> =
            logits.iter().enumerate().map(|(i, &l)| (i, l / temp)).collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let k = top_k.clamp(1, indexed.len());
        let shortlist = &indexed[..k];
        let max = shortlist[0].1;
        let weights: Vec<f32> = shortlist.iter().map(|(_, l)| (l - max).exp()).collect();
        let total: f32 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
        for ((idx, _), w) in shortlist.iter().zip(&weights) {
            if draw < *w {
                return *idx as u32;
            }
            draw -= w;
        }
        shortlist[k - 1].0 as u32
    }

    fn logit() -> impl Strategy<Value = f32> {
        prop_oneof![
            (-3i32..=3).prop_map(|v| v as f32), // heavy ties
            -20.0f32..20.0,
            Just(0.0f32),
            Just(-0.0f32),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Partial selection draws the same token, from the same RNG
        /// position, as the stable full sort — over ties, signed zeros,
        /// infinities, NaN (ranked as `-inf`), `top_k` of 0, 1 and beyond
        /// the vocabulary, and temperature 0.
        #[test]
        fn partial_selection_draws_like_the_stable_sort(
            mut logits in proptest::collection::vec(logit(), 1..=40),
            (pos_inf_at, neg_inf_at, nan_at) in (0usize..120, 0usize..120, 0usize..200),
            top_k in 0usize..=45,
            temperature in prop_oneof![Just(0.0f32), Just(1.0f32), 0.05f32..2.0],
            seed in any::<u64>(),
        ) {
            let specials = [
                (pos_inf_at, f32::INFINITY),
                (neg_inf_at, f32::NEG_INFINITY),
                (nan_at, f32::NAN),
            ];
            for (at, value) in specials {
                if let Some(l) = logits.get_mut(at) {
                    *l = value;
                }
            }
            let as_ranked: Vec<f32> =
                logits.iter().map(|&l| if l.is_nan() { f32::NEG_INFINITY } else { l }).collect();
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ranked = Vec::new();
            let expected =
                stable_sort_sample_row(&as_ranked, temperature, top_k, &mut reference_rng);
            let drawn = sample_row_with(&logits, temperature, top_k, &mut rng, &mut ranked);
            prop_assert_eq!(drawn, expected);
            prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
        }
    }

    #[test]
    fn nan_logits_are_never_drawn() {
        let logits = [f32::NAN, 1.0, f32::NAN, 0.5, f32::NAN];
        let mut r = rng();
        for _ in 0..64 {
            let token = sample_row(&logits, 1.0, 5, &mut r);
            assert!(token == 1 || token == 3, "drew NaN logit {token}");
        }
    }

    #[test]
    fn sampling_respects_top_1() {
        let logits = [0.0f32, 5.0, 1.0];
        for _ in 0..8 {
            assert_eq!(sample_row(&logits, 1.0, 1, &mut rng()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "sequence too long")]
    fn overlong_sequences_rejected() {
        let model = Gpt::new(GptConfig::tiny(8), &mut rng());
        let seq: Vec<u32> = (0..100).map(|i| i % 8).collect();
        let mut tape = Tape::new();
        model.forward(&mut tape, &seq);
    }
}
