"""Desk-scale multi-label classifier: strided encoder + multi-head attention pooling.

Two variants share one parameter/checkpoint machinery:

- "attention": two strided affine+tanh stages reduce (time, freq) input to a
  short frame sequence; per head, an attention branch (sigmoid, normalized to
  sum to 1 over time per class) weights a classification branch, the weighted
  sums are combined through softmax gates, and a final sigmoid yields
  per-class probabilities.
- "linear": temporal mean pooling of the raw input followed by one affine
  map; pre-sigmoid logits are exactly linear in the parameters, which is
  what makes weight averaging commute with logit averaging.

All math is float64 and gradients are written out by hand; grad_check
compares them against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .corpus import MultiLabelCorpus
from .metrics import EvalReport, evaluate
from .rng import stream, stream_seed
from .sampler import AugmentConfig, make_weights, plan_epoch


class ModelError(Exception):
    pass


class DivergenceError(ModelError):
    """Training hit a non-finite loss or gradient."""


class CheckpointError(ModelError):
    pass


class InitMismatchError(ModelError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    time_frames: int
    freq_bins: int
    variant: str = "attention"
    num_heads: int = 4
    embed_dim: int = 64  # encoder output width D
    hidden_dim: int = 32  # stage-1 width
    time_strides: tuple[int, int] = (8, 4)

    def __post_init__(self):
        if self.num_classes < 1:
            raise ModelError("num_classes must be >= 1")
        if self.variant not in ("attention", "linear"):
            raise ModelError(f"unknown variant {self.variant!r}")
        if self.variant == "attention":
            if min(self.num_heads, self.embed_dim, self.hidden_dim) < 1:
                raise ModelError("num_heads, embed_dim and hidden_dim must be >= 1")
            s1, s2 = self.time_strides
            if s1 < 1 or s2 < 1 or self.time_frames % (s1 * s2) != 0:
                raise ModelError(
                    f"time_frames {self.time_frames} not divisible by strides {self.time_strides}"
                )


# Model.predict scores clips in groups whose largest per-clip float64 array (the
# upcast input, the stage-1 activations, the (H, T', C) attention maps or the
# scores) fills at most this many bytes, and at least one clip per group. That
# bounds memory; a 2048x527 sigmoid took 8.9 ms whole, 5.9 ms in 1 MiB pieces.
CHUNK_BYTES = 1 << 20
# The head's gemms run on zero-padded blocks of this many rows, one gemm per
# block, so a row's bits depend only on the row and the weights.
HEAD_BLOCK = 8
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(min(z, 0)) / (1 + exp(-|z|)): exp of a non-positive argument never
    # overflows, and each sign gets its textbook form bit for bit, because
    # exp(min(z, 0)) is exactly 1 for z >= 0 and -|z| is z for z < 0.
    d = np.abs(z)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    e = np.minimum(z, 0.0, out=out)
    np.exp(e, out=e)
    e /= d
    return e


# The head's per-head contractions run as one matmul each, so BLAS does
# them: head weights (H, D, C) sit side by side as a (D, H*C) matrix, and
# frames (B, H, T', C) as rows of a (B*T', H*C) matrix.


def _row_matmul(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(M, K) @ (K, N) as one gemm per zero-padded HEAD_BLOCK-row block."""
    m, k = rows.shape
    blocks = np.zeros((-(-m // HEAD_BLOCK), HEAD_BLOCK, k))
    blocks.reshape(-1, k)[:m] = rows
    return (blocks @ w).reshape(-1, w.shape[1])[:m]


def _head_matrix(w: np.ndarray) -> np.ndarray:
    """(H, D, C) -> (D, H*C)."""
    nh, d, c = w.shape
    return w.transpose(1, 0, 2).reshape(d, nh * c)


def _from_head_matrix(m: np.ndarray, nh: int) -> np.ndarray:
    """(D, H*C) -> (H, D, C)."""
    d = m.shape[0]
    return m.reshape(d, nh, -1).transpose(1, 0, 2)


def _split_heads(m: np.ndarray, bsz: int, nh: int) -> np.ndarray:
    """(B*T', H*C) -> (B, H, T', C)."""
    return m.reshape(bsz, -1, nh, m.shape[1] // nh).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, T', C) -> (B*T', H*C)."""
    bsz, nh, t, c = a.shape
    return a.transpose(0, 2, 1, 3).reshape(bsz * t, nh * c)


class Model:
    """Forward/backward for one config over ``vector``, which it trains in place.

    ``params`` maps each name to a reshaped view of ``vector.values``; the
    mapping is read-only, so a tensor can be written through but not rebound.
    """

    def __init__(self, config: ModelConfig, vector: "ParameterVector"):
        if vector.manifest != tuple(self.param_manifest(config)):
            raise CheckpointError("parameter manifest mismatch")
        self.config = config
        self.vector = vector
        self.params = MappingProxyType(vector.views(vector.values))

    @staticmethod
    def param_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
        c = config.num_classes
        if config.variant == "linear":
            return [("w", (config.freq_bins, c)), ("b", (c,))]
        s1, s2 = config.time_strides
        d1, d = config.hidden_dim, config.embed_dim
        h = config.num_heads
        return [
            ("enc1_w", (s1 * config.freq_bins, d1)),
            ("enc1_b", (d1,)),
            ("enc2_w", (s2 * d1, d)),
            ("enc2_b", (d,)),
            ("att_w", (h, d, c)),
            ("att_b", (h, c)),
            ("cls_w", (h, d, c)),
            ("cls_b", (h, c)),
            ("head_gates", (h,)),
        ]

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "Model":
        """Fresh parameters: weights ~ N(0, 1/fan_in), biases and gates zero."""
        manifest = cls.param_manifest(config)
        size = sum(math.prod(shape) for _, shape in manifest)
        try:
            values = np.zeros(size)
        except (ValueError, MemoryError):  # numpy's "array is too big", or no memory
            raise ModelError(f"{size} parameters do not fit in memory") from None
        model = cls(config, ParameterVector(values=values, manifest=manifest))
        for name, view in model.params.items():
            if not (name.endswith("_b") or name in ("b", "head_gates")):
                fan_in = view.shape[0] if view.ndim == 2 else view.shape[1]
                view[...] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=view.shape)
        return model

    # -- forward ---------------------------------------------------------

    def _encode(self, x: np.ndarray):
        """(B, T, F) -> (B, T', D) through the two strided affine+tanh stages."""
        p = self.params
        s1, s2 = self.config.time_strides
        bsz, t, f = x.shape
        r1 = x.reshape(bsz, t // s1, s1 * f)
        h1 = np.tanh(r1 @ p["enc1_w"] + p["enc1_b"])
        r2 = h1.reshape(bsz, t // (s1 * s2), s2 * h1.shape[2])
        h2 = np.tanh(r2 @ p["enc2_w"] + p["enc2_b"])
        return r1, h1, r2, h2

    def _forward_full(self, x: np.ndarray) -> dict:
        """Forward pass over one whole batch, keeping what the backward pass needs."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        want = (self.config.time_frames, self.config.freq_bins)
        if x.shape[1:] != want:
            raise ModelError(f"input shape {x.shape[1:]} != configured {want}")
        p = self.params
        if self.config.variant == "linear":
            pooled = x.mean(axis=1)  # (B, F)
            logits = _row_matmul(pooled, p["w"])  # a fresh array
            logits += p["b"]
            cache = {"pooled": pooled, "logits": logits, "att_norm": None}
        else:
            r1, h1, r2, h = self._encode(x)
            bsz, nh = h.shape[0], self.config.num_heads
            rows = h.reshape(-1, h.shape[2])  # (B*T', D)
            att_logit = (_split_heads(_row_matmul(rows, _head_matrix(p["att_w"])), bsz, nh)
                         + p["att_b"][None, :, None, :])
            att = _sigmoid(att_logit)
            att_sum = att.sum(axis=2, keepdims=True)  # (B, H, 1, C)
            att_norm = att / att_sum
            cls = (_split_heads(_row_matmul(rows, _head_matrix(p["cls_w"])), bsz, nh)
                   + p["cls_b"][None, :, None, :])
            head_out = (att_norm * cls).sum(axis=2)  # (B, H, C)
            g = p["head_gates"]
            gamma = np.exp(g - g.max())
            gamma /= gamma.sum()
            logits = np.einsum("bhc,h->bc", head_out, gamma)
            cache = {
                "r1": r1, "h1": h1, "r2": r2, "h": h, "att": att, "att_sum": att_sum,
                "att_norm": att_norm, "cls": cls, "head_out": head_out, "gamma": gamma,
                "logits": logits,
            }
        if not np.all(np.isfinite(logits)):
            raise DivergenceError("non-finite activations in forward pass")
        cache["squeeze"] = squeeze
        return cache

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-class probabilities plus the normalized attention maps (B, H, T', C).

        Accepts one (time, freq) matrix or a batch; the linear variant has
        no attention maps and returns None for them.
        """
        cache = self._forward_full(x)
        probs = _sigmoid(cache["logits"])
        att = cache["att_norm"]
        if cache["squeeze"]:
            probs = probs[0]
            att = None if att is None else att[0]
        return probs, att

    def forward_logits(self, x: np.ndarray) -> np.ndarray:
        cache = self._forward_full(x)
        return cache["logits"][0] if cache["squeeze"] else cache["logits"]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """(N, T, F) -> (N, C) probability matrix, one group of clips at a time."""
        cfg = self.config
        want = (cfg.time_frames, cfg.freq_bins)
        if features.ndim != 3 or features.shape[1:] != want:
            raise ModelError(f"input shape {features.shape[1:]} != configured {want}")
        if cfg.variant == "linear":
            per_clip = max(cfg.time_frames * cfg.freq_bins, cfg.num_classes)
        else:
            s1, s2 = cfg.time_strides
            per_clip = max(cfg.time_frames * cfg.freq_bins, cfg.time_frames // s1 * cfg.hidden_dim,
                           cfg.time_frames // (s1 * s2) * cfg.num_heads * cfg.num_classes)
        step = max(1, CHUNK_BYTES // (8 * per_clip))
        out = np.empty((len(features), cfg.num_classes))
        for lo in range(0, len(features), step):
            _sigmoid(self._forward_full(features[lo : lo + step])["logits"], out=out[lo : lo + step])
        return out

    # -- backward --------------------------------------------------------

    # A diverging step is reported by the DivergenceError checks, not numpy's warnings.
    @np.errstate(over="ignore", invalid="ignore")
    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean logit-space BCE over the batch and its exact gradient, laid out like ``vector``."""
        cache = self._forward_full(x)
        z = cache["logits"]
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[None]
        bsz, c = z.shape
        # softplus(z) - y*z is BCE expressed on the logit; exact gradient, no clamping.
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        dz = (_sigmoid(z) - y) / (bsz * c)
        p = self.params
        grad = np.empty(self.vector.values.size)
        grads = self.vector.views(grad)

        if self.config.variant == "linear":
            grads["w"][...] = cache["pooled"].T @ dz
            grads["b"][...] = dz.sum(axis=0)
        else:
            gamma, head_out = cache["gamma"], cache["head_out"]
            dgamma = np.einsum("bc,bhc->h", dz, head_out)
            grads["head_gates"][...] = gamma * (dgamma - float(gamma @ dgamma))
            dhead = dz[:, None, :] * gamma[None, :, None]  # (B, H, C)

            att_norm, cls = cache["att_norm"], cache["cls"]
            dcls = dhead[:, :, None, :] * att_norm  # (B, H, T, C)
            datt_norm = dhead[:, :, None, :] * cls
            inner = (datt_norm * att_norm).sum(axis=2, keepdims=True)
            datt = (datt_norm - inner) / cache["att_sum"]
            att = cache["att"]
            datt_logit = datt * att * (1.0 - att)

            h = cache["h"]
            nh = self.config.num_heads
            rows = h.reshape(-1, h.shape[2])  # (B*T', D)
            datt_rows, dcls_rows = _merge_heads(datt_logit), _merge_heads(dcls)
            grads["att_w"][...] = _from_head_matrix(rows.T @ datt_rows, nh)
            grads["att_b"][...] = datt_logit.sum(axis=(0, 2))
            grads["cls_w"][...] = _from_head_matrix(rows.T @ dcls_rows, nh)
            grads["cls_b"][...] = dcls.sum(axis=(0, 2))
            dh = datt_rows @ _head_matrix(p["att_w"]).T
            dh += dcls_rows @ _head_matrix(p["cls_w"]).T
            dh = dh.reshape(h.shape)

            h1, r1, r2 = cache["h1"], cache["r1"], cache["r2"]
            dz2 = dh * (1.0 - h * h)
            grads["enc2_w"][...] = r2.reshape(-1, r2.shape[2]).T @ dz2.reshape(-1, dz2.shape[2])
            grads["enc2_b"][...] = dz2.sum(axis=(0, 1))
            dr2 = dz2 @ p["enc2_w"].T
            dh1 = dr2.reshape(h1.shape)
            dz1 = dh1 * (1.0 - h1 * h1)
            grads["enc1_w"][...] = r1.reshape(-1, r1.shape[2]).T @ dz1.reshape(-1, dz1.shape[2])
            grads["enc1_b"][...] = dz1.sum(axis=(0, 1))

        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError("non-finite loss or gradient")
        return loss, grad

    # -- parameter vector ------------------------------------------------

    def params_vector(self) -> "ParameterVector":
        return replace(self.vector, values=self.vector.values.copy())

    @classmethod
    def from_vector(cls, config: ModelConfig, vec: "ParameterVector") -> "Model":
        return cls(config, replace(vec, values=vec.values.copy()))


@dataclass
class ParameterVector:
    """Flat float64 parameter vector plus the (name, shape) manifest that partitions it."""

    values: np.ndarray
    manifest: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.manifest = tuple((str(n), tuple(int(d) for d in s)) for n, s in self.manifest)
        names = [name for name, _ in self.manifest]
        if len(set(names)) != len(names):
            raise CheckpointError(f"manifest repeats a tensor name: {names}")
        total = sum(math.prod(s) for _, s in self.manifest)
        if total != self.values.size:
            raise CheckpointError(
                f"manifest covers {total} values, vector has {self.values.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise CheckpointError("non-finite parameter values")

    def views(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor of ``values``, a flat vector laid out by this manifest, as a view."""
        out, off = {}, 0
        for name, shape in self.manifest:
            size = math.prod(shape)
            out[name] = values[off : off + size].reshape(shape)
            off += size
        return out

    def save(self, path: str | Path) -> None:
        lines = ["TAGKIT-CKPT 1"]
        for name, shape in self.manifest:
            lines.append("tensor " + name + " " + " ".join(str(d) for d in shape))
        header = ("\n".join(lines) + "\nEND\n").encode("ascii")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "ParameterVector":
        data = Path(path).read_bytes()
        marker = b"\nEND\n"
        pos = data.find(marker)
        if pos < 0 or not data.startswith(b"TAGKIT-CKPT 1\n"):
            raise CheckpointError(f"not a checkpoint file: {path}")
        try:
            lines = data[:pos].decode("ascii").splitlines()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: checkpoint header is not ASCII") from None
        manifest = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) < 3 or parts[0] != "tensor" or not all(d.isdigit() for d in parts[2:]):
                raise CheckpointError(f"bad manifest line: {line!r}")
            manifest.append((parts[1], tuple(int(d) for d in parts[2:])))
        raw = data[pos + len(marker) :]
        if len(raw) % 8:
            raise CheckpointError(f"{path}: payload of {len(raw)} bytes is not float64 values")
        payload = np.frombuffer(raw, dtype="<f8")
        return cls(values=payload.astype(np.float64), manifest=tuple(manifest))


def load_external_init(model: Model, path: str | Path) -> tuple[list[str], list[str]]:
    """Load into ``model`` each tensor of an externally produced parameter file that matches
    one of its own by name and shape. The rest (e.g. a classifier head sized for different
    classes) keep ``model``'s values, its fresh initialization in ``run_train``. Returns
    the loaded and the re-initialized (kept) tensor names; raises if nothing overlaps."""
    vec = ParameterVector.load(path)
    external = vec.views(vec.values)
    loaded, reinit = [], []
    for name, view in model.params.items():
        if name in external and external[name].shape == view.shape:
            view[...] = external[name]
            loaded.append(name)
        else:
            reinit.append(name)
    if not loaded:
        raise InitMismatchError(f"no compatible tensors in {path}")
    return loaded, reinit


# -- schedules and training -----------------------------------------------


@dataclass(frozen=True)
class LRSchedule:
    """Linear warmup over the first iterations, then halving every few epochs.

    decay_start_epoch is 35 for balanced-regime runs and 10 for full-regime
    runs; after it, the rate is halved every decay_period epochs.
    """

    base_lr: float = 1e-3
    warmup_iters: int = 1000
    decay_start_epoch: int = 35
    decay_period: int = 5

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf:
            raise ModelError("base_lr must be finite and > 0")
        if self.warmup_iters < 0:
            raise ModelError("warmup_iters must be >= 0")
        if self.decay_period < 1:
            raise ModelError("decay_period must be >= 1")

    def lr(self, iteration: int, epoch: int) -> float:
        """Learning rate at a 1-based global iteration within a 1-based epoch."""
        warm = min(1.0, iteration / self.warmup_iters) if self.warmup_iters > 0 else 1.0
        steps = 0
        if epoch > self.decay_start_epoch:
            steps = math.ceil((epoch - self.decay_start_epoch) / self.decay_period)
        return self.base_lr * warm * 0.5**steps

    def averaging_start_epoch(self, epochs: int) -> int:
        """First epoch whose rate is at most a quarter of the base rate."""
        for e in range(1, epochs + 1):
            if self.lr(max(self.warmup_iters, 1), e) <= self.base_lr / 4.0 + 1e-18:
                return e
        return epochs


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 100
    schedule: LRSchedule = field(default_factory=LRSchedule)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ModelError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")


@dataclass
class TrainResult:
    checkpoints: list[ParameterVector]
    log_rows: list[dict]  # epoch, iteration, lr, loss, eval_map
    eval_reports: list[EvalReport]
    eval_ensemble: np.ndarray | None  # mean of the epochs' (N_eval, C) eval scores, or None


def _assemble_batch(corpus: MultiLabelCorpus, labels: np.ndarray, plan, index: np.ndarray):
    """Features and soft labels of plan draws ``index``: mixup, then zero-filled masks.

    Bit-identical to mixing and masking each draw on its own: each draw fills
    its own row with plain slices, in that operation order. plan_epoch
    guarantees the masks fit the feature shape.
    """
    features = corpus.features
    primary, partner = plan.primary[index], plan.partner[index]
    lam, mix = plan.mix_lambda[index], plan.is_mixup[index]
    y = labels[primary].astype(np.float64)
    if mix.any():
        lm = lam[mix][:, None]
        y[mix] = lm * y[mix] + (1.0 - lm) * labels[partner[mix]]
    x = np.empty((len(index), *features.shape[1:]))
    buf = np.empty(features.shape[1:])
    # Python scalars: indexing numpy arrays per clip costs more than a small clip's work.
    draws = zip(*(a.tolist() for a in (primary, mix, partner, lam, plan.time_off[index],
                                       plan.time_len[index], plan.freq_off[index],
                                       plan.freq_len[index])))
    for row, (i, mixed, j, lam_i, t0, tl, f0, fl) in zip(x, draws):
        row[...] = features[i]
        if mixed:
            row *= lam_i
            buf[...] = features[j]
            buf *= 1.0 - lam_i
            row += buf
        row[t0 : t0 + tl] = 0.0
        row[:, f0 : f0 + fl] = 0.0
    return x, y


def train(
    corpus: MultiLabelCorpus,
    model_config: ModelConfig,
    augment_config: AugmentConfig,
    train_config: TrainConfig,
    eval_corpus: MultiLabelCorpus | None = None,
    init_model: Model | None = None,
) -> TrainResult:
    """Run the full recipe: per-epoch sampling plans, augmentation, Adam, checkpoints.

    Deterministic for a fixed seed: corpus synthesis, plan drawing, and
    parameter init each use their own named stream of the master seed.
    The checkpoint ensemble is one running sum of the epochs' eval scores, divided once
    by the epoch count: ``aggregate.ensemble_mean``'s in-order fold, so the same bits.
    """
    seed = train_config.seed
    labels = corpus.labels
    weights = make_weights(labels)
    model = init_model if init_model is not None else Model.init(model_config, stream(seed, "init"))

    params = model.vector.values
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    sched = train_config.schedule
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    checkpoints: list[ParameterVector] = []
    log_rows: list[dict] = []
    eval_reports: list[EvalReport] = []
    ensemble = None
    step = 0
    for epoch in range(1, train_config.epochs + 1):
        plan = plan_epoch(
            weights, augment_config, corpus.feature_shape, stream_seed(seed, "sampler", epoch)
        )
        for lo in range(0, len(plan), train_config.batch_size):
            index = np.arange(lo, min(lo + train_config.batch_size, len(plan)))
            x, y = _assemble_batch(corpus, labels, plan, index)
            step += 1
            lr = sched.lr(step, epoch)
            try:
                batch_loss, g = model.loss_and_grads(x, y)
            except DivergenceError as err:
                raise DivergenceError(
                    f"diverged at epoch {epoch}, iteration {step}: {err}"
                ) from err
            adam_m = b1 * adam_m + (1 - b1) * g
            adam_v = b2 * adam_v + (1 - b2) * g * g
            m_hat = adam_m / (1 - b1**step)
            v_hat = adam_v / (1 - b2**step)
            params -= lr * m_hat / (np.sqrt(v_hat) + eps)
            if not np.all(np.isfinite(params)):
                raise DivergenceError(
                    f"non-finite parameters at epoch {epoch}, iteration {step} "
                    f"(lr {lr:g}, loss {batch_loss:g})"
                )
            log_rows.append(
                {"epoch": epoch, "iteration": step, "lr": lr, "loss": batch_loss}
            )
        checkpoints.append(model.params_vector())
        if eval_corpus is not None:
            scores = model.predict(eval_corpus.features)
            report = evaluate(scores, eval_corpus.labels)
            eval_reports.append(report)
            ensemble = scores if epoch == 1 else np.add(ensemble, scores, out=ensemble)
            log_rows[-1] = dict(log_rows[-1], eval_map=report.map)
    if ensemble is not None:
        ensemble /= train_config.epochs
    return TrainResult(
        checkpoints=checkpoints,
        log_rows=log_rows,
        eval_reports=eval_reports,
        eval_ensemble=ensemble,
    )


def grad_check(model: Model, x: np.ndarray, y: np.ndarray, step: float = 1e-5) -> float:
    """Max deviation between analytic and central-finite-difference gradients.

    The deviation is scaled by the gradient's largest magnitude, so the
    returned number is a relative error of the gradient field as a whole.
    Intended for small configs (<= 10^4 parameters).
    """
    if model.vector.values.size > 10_000:
        raise ModelError("grad_check is for models with <= 10^4 parameters")
    _, analytic = model.loss_and_grads(x, y)
    numeric = np.empty_like(analytic)
    flat = model.vector.values
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        lp, _ = model.loss_and_grads(x, y)
        flat[idx] = orig - step
        lm, _ = model.loss_and_grads(x, y)
        flat[idx] = orig
        numeric[idx] = (lp - lm) / (2 * step)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)
