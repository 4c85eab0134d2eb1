"""Model-family skeletons.

A template fixes everything about a network except its per-layer channel
widths: layer kinds and order, kernel sizes, strides, padding, which
layers are binarized, and which layers carry a width gene. Output channel
counts are stated for the 1x configuration and scaled by an expansion
code at instantiation time; each layer's input width follows from the
layers before it. A residual block (`BlockSpec`) holds its own layers: a
main path and a shortcut, both run from the block input and added. A
template is its name, items and input shape: one walk, run when it is
built and kept as `template.plan` (`GeometryPlan`), checks every field it
reads and derives `n_genes` and `class_count`.

Gene layout convention for residual families: one gene for the stem
output, one gene per block mid-width, and one gene per stage output
width (the projection shortcut adopts it). Blocks with an identity
shortcut have their output width tied to the block input and carry no
output gene.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import InputError

# Layer kind -> the `LayerSpec` fields it reads; a pool is a max pool, gap global average pooling.
_WINDOW, _WIDTH = ("kernel", "stride", "pad"), ("base_out", "binarized", "gene_index")
KINDS = {"conv": _WINDOW + _WIDTH, "fc": _WIDTH, "pool": _WINDOW, "gap": (), "bn": (), "act": ()}


@dataclass(frozen=True)
class LayerSpec:
    """One layer; `kernel` is a square window. `KINDS` names the fields each
    kind reads, and a field its kind does not read must keep its default."""

    name: str
    kind: str  # one of KINDS
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    base_out: int = 0
    binarized: bool = False
    gene_index: int | None = None


@dataclass(frozen=True)
class BlockSpec:
    """A residual block: the main path's output plus the shortcut's, both
    run from the block input. An empty shortcut is the identity."""

    name: str
    main: tuple[LayerSpec, ...]
    shortcut: tuple[LayerSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "main", tuple(self.main))
        object.__setattr__(self, "shortcut", tuple(self.shortcut))


@dataclass(frozen=True)
class LayerGeom:
    """One executed layer: its spec, resolved channels, output extent, and
    the shape of each array it owns, by field name in storage order."""

    spec: LayerSpec
    in_ch: int
    out_ch: int
    h_out: int
    w_out: int
    shapes: dict[str, tuple[int, ...]]


def _whole(spec: LayerSpec, key: str, least: int) -> int:
    """The layer's field `key`, checked to be an int of at least `least`."""
    value = getattr(spec, key)
    if type(value) is not int or value < least:
        raise InputError(f"{spec.kind} '{spec.name}' has {key} {value!r}; it must be an integer >= {least}")
    return value


class GeometryPlan:
    """A template's one structural walk, run when the template is built:
    it checks every field it reads and that no other field is set, that
    each block's two branches meet at one extent, the gene table and the
    precision rule, and keeps what no code changes.

    `entries` holds every executed layer in walk order as (spec, in
    source, out source, h_out, w_out, weights per in/out channel pair,
    fc bias flag): k*k weights per pair for a conv, the flattened input
    extent for an fc, 0 for any other kind. `weighted` is derived from it
    after the walk: every conv/fc entry as (spec, in source, out source,
    weights per pair, output positions). A source indexes the vector
    `channels` returns: gene widths by gene index, then the `fixed`
    counts by negative index: the image channels at -1 and each ungened
    fc's width, in walk order, at -2, -3, ...; the final fc's, the class
    count, is `fixed[0]`. `ties` lists, in walk order, each block whose
    two branch ends are sources that can differ, as (block, the
    shortcut's last layer or None, shortcut source, main-path source).
    """

    __slots__ = ("entries", "weighted", "fixed", "bases", "ties")

    def __init__(self, template: "NetworkTemplate"):
        name, shape = template.name, template.input_shape
        if len(shape) != 3 or any(type(n) is not int or n < 1 for n in shape):
            raise InputError(f"template '{name}' input shape {shape} is not three positive integers")
        self.entries: list[tuple] = []
        self.ties: list[tuple[str, str | None, int, int]] = []
        self.fixed = [shape[0]]
        genes: dict[int, LayerSpec] = {}
        self._walk(template.layers, genes, -1, *shape[1:])
        self.weighted = [(spec, i, o, pair, h * w) for spec, i, o, h, w, pair, _ in self.entries if pair]
        names = [entry[0].name for entry in self.entries]
        if len(set(names)) != len(names):
            raise InputError(f"template '{name}' names two layers '{next(n for n in names if names.count(n) > 1)}'")
        if sorted(genes) != list(range(len(genes))):
            raise InputError(f"template '{name}' gene indices {sorted(genes)} are not 0..{len(genes) - 1}")
        self.bases = [genes[i].base_out for i in range(len(genes))]  # each gene's base width
        convs = [spec for spec, *_ in self.weighted if spec.kind == "conv"]
        fcs = [spec for spec, *_ in self.weighted if spec.kind == "fc"]
        if not convs or not fcs:
            raise InputError(f"template '{name}' needs at least one conv and one fc layer")
        if fcs[-1].gene_index is not None:
            raise InputError(f"final fc '{fcs[-1].name}' carries gene {fcs[-1].gene_index}, "
                             "but its width is the class count")
        for spec, *_ in self.weighted:  # full precision exactly at the first conv and the final fc
            full_precision = spec is convs[0] or spec is fcs[-1]
            if spec.binarized == full_precision:
                raise InputError(f"layer '{spec.name}' of template '{name}' must be "
                                 f"{'full-precision' if full_precision else 'binarized'}")

    def _walk(self, items, genes: dict, c: int, h: int, w: int, flat: bool = False,
              tie: int | None = None) -> tuple[int, int, int, bool]:
        """Walk `items` from channel source `c` at extent h x w, `flat` once
        an fc or global pooling has dropped the spatial axes, and enter each
        gened layer in `genes`; return the output's (source, h, w, flat). An
        ungened conv takes source `tie`: a block walks its main path tied to
        the block input when its shortcut is the identity, then its
        shortcut tied to the main path's output."""
        for i, spec in enumerate(items):
            if isinstance(spec, BlockSpec):
                main = self._walk(spec.main, genes, c, h, w, flat, None if spec.shortcut else c)
                short = self._walk(spec.shortcut, genes, c, h, w, flat, main[0])
                if short[1:] != main[1:]:
                    short_ext, main_ext = ("flat" if f else f"{y}x{x}" for _, y, x, f in (short, main))
                    raise InputError(f"block '{spec.name}' adds a {short_ext} shortcut to a {main_ext} main path")
                if short[0] != main[0]:
                    self.ties.append((spec.name, spec.shortcut[-1].name if spec.shortcut else None, short[0], main[0]))
                c, h, w, flat = main
                continue
            if spec.kind not in KINDS:
                raise InputError(f"unknown layer kind '{spec.kind}'")
            unread = {f.name: getattr(spec, f.name) for f in fields(LayerSpec)[2:]  # past name and kind
                      if f.name not in KINDS[spec.kind] and getattr(spec, f.name) != f.default}
            if unread:
                raise InputError(f"{spec.kind} '{spec.name}' sets {unread}, fields its kind does not read")
            if flat and spec.kind in ("conv", "pool", "gap"):
                raise InputError(f"{spec.kind} '{spec.name}' needs a spatial input, but an earlier layer flattened it")
            cin = c
            if spec.gene_index is not None:  # a conv or fc: no other kind may set it
                c = _whole(spec, "gene_index", 0)
                if c in genes:
                    raise InputError(f"gene {c} assigned to both '{genes[c].name}' and '{spec.name}'")
                if type(spec.base_out) is not int or spec.base_out <= 0:
                    raise InputError(f"gened layer '{spec.name}' base width {spec.base_out!r} is not positive")
                if spec.base_out % 4:
                    raise InputError(f"gened layer '{spec.name}' base width {spec.base_out} is not divisible by 4")
                genes[c] = spec
            elif spec.kind == "conv":
                if tie is None:
                    raise InputError(f"conv '{spec.name}' has no gene and no identity block to tie to")
                c = tie
            elif spec.kind == "fc":
                self.fixed.insert(0, _whole(spec, "base_out", 1))
                c = -len(self.fixed)
            if spec.kind in ("conv", "pool"):
                k, stride, pad = _whole(spec, "kernel", 1), _whole(spec, "stride", 1), _whole(spec, "pad", 0)
                if spec.kind == "pool" and pad >= k:
                    raise InputError(f"pool '{spec.name}' pads {pad} around a {k}-wide window, "
                                     "so a window can hold only padding")
                if min(h, w) + 2 * pad < k:
                    raise InputError(f"kernel {k} exceeds padded extent {min(h, w) + 2 * pad}")
                h, w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
            if spec.kind == "conv":
                self.entries.append((spec, cin, c, h, w, k * k, False))
            elif spec.kind == "fc":
                bias = i + 1 == len(items) or getattr(items[i + 1], "kind", None) != "bn"
                self.entries.append((spec, cin, c, 1, 1, h * w, bias))
                h = w = 1
                flat = True
            else:
                if spec.kind == "gap":
                    h = w = 1
                    flat = True
                self.entries.append((spec, c, c, h, w, 0, False))
        return c, h, w, flat

    def channels(self, code: tuple[float, ...]) -> list[int]:
        """The channel count of every source, for a code validated against
        the template's gene count. A gened base width is a positive multiple
        of 4, so every candidate ratio scales it to a whole count of at
        least 1; only a tie between a block's two branch ends can fail."""
        counts = [int(r * base) for r, base in zip(code, self.bases)] + self.fixed
        for block, last, shortcut, c in self.ties:
            if counts[shortcut] == counts[c]:
                continue
            if last is None:
                raise InputError(f"identity shortcut of block '{block}' sees {counts[shortcut]} vs {counts[c]} channels")
            raise InputError(f"shortcut of block '{block}' ends at '{last}' with {counts[shortcut]} channels, "
                             f"its main path with {counts[c]}")
        return counts

    def layers(self, code: tuple[float, ...]) -> list[LayerGeom]:
        """Every entry's `LayerGeom`, for a validated code."""
        counts = self.channels(code)
        geoms = []
        for spec, i, o, h, w, pair, bias in self.entries:
            cin, c = counts[i], counts[o]
            if spec.kind == "conv":
                shapes = {"weight": (c, cin, spec.kernel, spec.kernel)}
            elif spec.kind == "fc":
                shapes = {"weight": (cin * pair, c), "bias": (c,)} if bias else {"weight": (cin * pair, c)}
            elif spec.kind == "bn":
                shapes = {"gamma": (c,), "beta": (c,), "running_mean": (c,), "running_var": (c,)}
            else:
                shapes = {}
            geoms.append(LayerGeom(spec, cin, c, h, w, shapes))
        return geoms


@dataclass(frozen=True)
class NetworkTemplate:
    name: str
    layers: tuple[LayerSpec | BlockSpec, ...]
    input_shape: tuple[int, int, int]  # (C, H, W)

    # Derived by the plan's walk when the template is built.
    n_genes: int = field(init=False)  # gened conv/fc layers, genes 0..n_genes - 1
    class_count: int = field(init=False)  # the final fc's width
    plan: GeometryPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # frozen: fields are set through the instance dict
        self.__dict__.update(layers=tuple(self.layers), input_shape=tuple(self.input_shape))
        plan = GeometryPlan(self)
        self.__dict__.update(plan=plan, n_genes=len(plan.bases), class_count=plan.fixed[0])

    def block_at(self, index: int) -> BlockSpec | None:
        """The top-level item at `index` if it is a block, else None."""
        return item if isinstance(item := self.layers[index], BlockSpec) else None


def _conv(name, base_out, k, stride=1, pad=None, binarized=True, gene=None) -> LayerSpec:
    return LayerSpec(name=name, kind="conv", kernel=k, stride=stride, pad=k // 2 if pad is None else pad,
                     base_out=base_out, binarized=binarized, gene_index=gene)


def _fc(name, base_out, binarized=True, gene=None) -> LayerSpec:
    return LayerSpec(name=name, kind="fc", base_out=base_out, binarized=binarized, gene_index=gene)


def _bn(name) -> LayerSpec:
    return LayerSpec(name=name, kind="bn")


def _act(name) -> LayerSpec:
    return LayerSpec(name=name, kind="act")


def _pool(name, k, stride, pad=0) -> LayerSpec:
    return LayerSpec(name=name, kind="pool", kernel=k, stride=stride, pad=pad)


def _gap(name) -> LayerSpec:
    return LayerSpec(name=name, kind="gap")


def vgg_small() -> NetworkTemplate:
    """Six 3x3 convs in three width tiers with a two-layer classifier, for 32x32 RGB inputs."""
    layers = [
        _conv("conv1", 128, 3, binarized=False, gene=0), _bn("bn1"), _act("act1"),
        _conv("conv2", 128, 3, gene=1), _bn("bn2"), _pool("pool1", 2, 2), _act("act2"),
        _conv("conv3", 256, 3, gene=2), _bn("bn3"), _act("act3"),
        _conv("conv4", 256, 3, gene=3), _bn("bn4"), _pool("pool2", 2, 2), _act("act4"),
        _conv("conv5", 512, 3, gene=4), _bn("bn5"), _act("act5"),
        _conv("conv6", 512, 3, gene=5), _bn("bn6"), _pool("pool3", 2, 2), _act("act6"),
        _fc("fc1", 1024, gene=6), _bn("bn7"), _act("act7"),
        _fc("fc2", 10, binarized=False),
    ]
    return NetworkTemplate(name="vgg_small", layers=tuple(layers), input_shape=(3, 32, 32))


def _residual_family(
    name: str,
    input_shape: tuple[int, int, int],
    class_count: int,
    stem: list[LayerSpec],
    stage_widths: list[int],
    blocks_per_stage: int,
) -> NetworkTemplate:
    layers = list(stem)
    gene = 1  # gene 0 is the stem conv
    for s, width in enumerate(stage_widths, start=1):
        for b in range(1, blocks_per_stage + 1):
            downsample = s > 1 and b == 1
            stride = 2 if downsample else 1
            prefix = f"s{s}b{b}"
            mid_gene = gene
            gene += 1
            if downsample:
                out_gene = gene
                gene += 1
            else:
                out_gene = None  # identity shortcut: output width tied to block input
            main = [
                _conv(f"{prefix}_conv1", width, 3, stride=stride, gene=mid_gene),
                _bn(f"{prefix}_bn1"),
                _act(f"{prefix}_act1"),
                _conv(f"{prefix}_conv2", width, 3, gene=out_gene),
                _bn(f"{prefix}_bn2"),
            ]
            shortcut = []
            if downsample:
                shortcut = [_conv(f"{prefix}_proj_conv", width, 1, stride=stride, pad=0), _bn(f"{prefix}_proj_bn")]
            layers.append(BlockSpec(prefix, main, shortcut))
            layers.append(_act(f"{prefix}_act2"))
    layers.append(_gap("gap"))
    layers.append(_fc("fc", class_count, binarized=False))
    return NetworkTemplate(name=name, layers=tuple(layers), input_shape=input_shape)


def resnet18() -> NetworkTemplate:
    """Stem + four 2-block stages (64/128/256/512) for 224x224 RGB inputs."""
    stem = [
        _conv("stem_conv", 64, 7, stride=2, pad=3, binarized=False, gene=0),
        _bn("stem_bn"),
        _pool("stem_pool", 3, 2, pad=1),
        _act("stem_act"),
    ]
    return _residual_family("resnet18", (3, 224, 224), 1000, stem, [64, 128, 256, 512], 2)


def resnet_mini() -> NetworkTemplate:
    """Three single-block stages (16/32/64) for 32x32 RGB inputs."""
    stem = [
        _conv("stem_conv", 16, 3, binarized=False, gene=0),
        _bn("stem_bn"),
        _act("stem_act"),
    ]
    return _residual_family("resnet_mini", (3, 32, 32), 10, stem, [16, 32, 64], 1)


def vgg_small_mini() -> NetworkTemplate:
    """Three small convs and a 64-wide hidden classifier, for 28x28 grayscale inputs."""
    layers = [
        _conv("conv1", 16, 3, binarized=False, gene=0), _bn("bn1"), _pool("pool1", 2, 2), _act("act1"),
        _conv("conv2", 16, 3, gene=1), _bn("bn2"), _pool("pool2", 2, 2), _act("act2"),
        _conv("conv3", 32, 3, gene=2), _bn("bn3"), _act("act3"),
        _fc("fc1", 64, gene=3), _bn("bn4"), _act("act4"),
        _fc("fc2", 10, binarized=False),
    ]
    return NetworkTemplate(name="vgg_small_mini", layers=tuple(layers), input_shape=(1, 28, 28))


TEMPLATES = {
    "vgg_small": vgg_small,
    "resnet18": resnet18,
    "vgg_small_mini": vgg_small_mini,
    "resnet_mini": resnet_mini,
}


def get_template(name: str) -> NetworkTemplate:
    try:
        builder = TEMPLATES[name]
    except KeyError:
        raise InputError(f"unknown template '{name}'; available: {sorted(TEMPLATES)}") from None
    return builder()
