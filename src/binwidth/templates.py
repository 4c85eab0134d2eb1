"""Model-family skeletons.

A template fixes everything about a network except its per-layer channel
widths: layer kinds and order, kernel sizes, strides, padding, which
layers are binarized, and which layers carry a width gene. Output channel
counts are stated for the 1x configuration and scaled by an expansion
code at instantiation time; each layer's input width follows from the
layers before it. A residual block (`BlockSpec`) holds its own layers: a
main path and a shortcut, both run from the block input and added. A
template checks its structure once, when it is built, and keeps the
walk's result as `template.plan` (`GeometryPlan`).

Gene layout convention for residual families: one gene for the stem
output, one gene per block mid-width, and one gene per stage output
width (the projection shortcut adopts it). Blocks with an identity
shortcut have their output width tied to the block input and carry no
output gene.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InputError


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv | fc | pool | bn | act
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    pad: int = 0
    base_out: int = 0
    binarized: bool = False
    gene_index: int | None = None
    pool_op: str = "max"  # for kind == "pool": "max" or "global_avg"


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
    in_features: int = 0  # fc only: flattened input size
    proj_of: str | None = None  # on a shortcut's entries: the block's name


def _conv_out(size: int, k: int, stride: int, pad: int) -> int:
    if size + 2 * pad < k:
        raise InputError(f"kernel {k} exceeds padded extent {size + 2 * pad}")
    return (size + 2 * pad - k) // stride + 1


def _specs(items: Iterable[LayerSpec | BlockSpec]) -> Iterator[LayerSpec]:
    """Every layer of `items` in walk order: a block's main path, then its shortcut."""
    for item in items:
        if isinstance(item, BlockSpec):
            yield from _specs(item.main + item.shortcut)
        else:
            yield item


class GeometryPlan:
    """A template's one structural walk, run when the template is built:
    it checks every layer's kind and extent and that each block's two
    branches meet at one extent, and keeps what no code changes.

    `entries` holds every executed layer in walk order as (spec, in
    source, out source, h_out, w_out, fc input extent, fc bias flag,
    proj_of); `weighted` every conv/fc entry as (spec, in source, out
    source, weights per in/out channel pair, output positions). A source
    indexes the vector `channels` returns: gene widths by gene index, then
    fixed counts (the image channels, an ungened fc's width). `ties` lists,
    in walk order, each block whose two branches end at sources that can
    differ.
    """

    __slots__ = ("entries", "weighted", "fixed", "bases", "ties")

    def __init__(self, template: "NetworkTemplate"):
        self.entries: list[tuple] = []
        self.weighted: list[tuple] = []
        self.ties: list[tuple[str, int, int]] = []
        self.bases = [0] * template.n_genes  # each gene's base width
        self.fixed = [template.input_shape[0]]
        self._walk(template.layers, template.n_genes, *template.input_shape[1:])

    def _walk(self, items, c: int, h: int, w: int, flat: bool = False, tie: int | None = None,
              proj_of: str | None = None) -> tuple[int, int, int, bool]:
        """Walk `items` from channel source `c` at extent h x w, `flat` once
        an fc or global pooling has dropped the spatial axes; return the
        output's (source, h, w, flat). An ungened conv takes source `tie`: a
        block walks its main path tied to the block input when its shortcut
        is the identity, then its shortcut tied to the main path's output."""
        for i, spec in enumerate(items):
            if isinstance(spec, BlockSpec):
                main = self._walk(spec.main, c, h, w, flat, None if spec.shortcut else c)
                short = self._walk(spec.shortcut, c, h, w, flat, main[0], spec.name)
                if short[1:] != main[1:]:
                    short_ext, main_ext = ("flat" if f else f"{y}x{x}" for _, y, x, f in (short, main))
                    raise InputError(f"block '{spec.name}' adds a {short_ext} shortcut to a {main_ext} main path")
                if short[0] != main[0]:
                    self.ties.append((spec.name, short[0], main[0]))
                c, h, w, flat = main
                continue
            if flat and spec.kind in ("conv", "pool"):
                raise InputError(f"{spec.kind} '{spec.name}' needs a spatial input, but an earlier layer flattened it")
            cin = c
            if spec.kind in ("conv", "fc") and spec.gene_index is not None:
                c = spec.gene_index
                self.bases[c] = spec.base_out
            elif spec.kind == "conv":
                if tie is None:
                    raise InputError(f"conv '{spec.name}' has no gene and no identity block to tie to")
                c = tie
            elif spec.kind == "fc":
                c = len(self.bases) + len(self.fixed)
                self.fixed.append(spec.base_out)
            if spec.kind == "conv" or spec.kind == "pool" and spec.pool_op != "global_avg":
                h = _conv_out(h, spec.kernel[0], spec.stride, spec.pad)
                w = _conv_out(w, spec.kernel[1], spec.stride, spec.pad)
            if spec.kind == "conv":
                self.entries.append((spec, cin, c, h, w, 0, False, proj_of))
                self.weighted.append((spec, cin, c, spec.kernel[0] * spec.kernel[1], h * w))
            elif spec.kind == "fc":
                bias = i + 1 == len(items) or getattr(items[i + 1], "kind", None) != "bn"
                self.entries.append((spec, cin, c, 1, 1, h * w, bias, proj_of))
                self.weighted.append((spec, cin, c, h * w, 1))
                h = w = 1
                flat = True
            elif spec.kind in ("pool", "bn", "act"):
                if spec.kind == "pool" and spec.pool_op == "global_avg":
                    h = w = 1
                    flat = True
                self.entries.append((spec, c, c, h, w, 0, False, proj_of))
            else:
                raise InputError(f"unknown layer kind '{spec.kind}'")
        return c, h, w, flat

    def channels(self, code: tuple[float, ...]) -> list[int]:
        """The channel count of every source, for a code validated against
        the template's gene count. A gened base width is a positive multiple
        of 4, so every candidate ratio scales it to a whole count of at
        least 1; only an identity tie can fail."""
        counts = [int(r * base) for r, base in zip(code, self.bases)] + self.fixed
        for block, shortcut, c in self.ties:
            if counts[shortcut] != counts[c]:
                raise InputError(f"identity shortcut of block '{block}' sees {counts[shortcut]} vs {counts[c]} channels")
        return counts

    def layers(self, code: tuple[float, ...]) -> list[LayerGeom]:
        """Every entry's `LayerGeom`, for a validated code."""
        counts = self.channels(code)
        geoms = []
        for spec, i, o, h, w, extent, bias, proj_of in self.entries:
            cin, c = counts[i], counts[o]
            n_in = 0
            if spec.kind == "conv":
                shapes = {"weight": (c, cin, *spec.kernel)}
            elif spec.kind == "fc":
                n_in = cin * extent
                shapes = {"weight": (n_in, c), "bias": (c,)} if bias else {"weight": (n_in, c)}
            elif spec.kind == "bn":
                shapes = {"gamma": (c,), "beta": (c,), "running_mean": (c,), "running_var": (c,)}
            else:
                shapes = {}
            geoms.append(LayerGeom(spec, cin, c, h, w, shapes, n_in, proj_of))
        return geoms


@dataclass(frozen=True)
class NetworkTemplate:
    name: str
    layers: tuple[LayerSpec | BlockSpec, ...]
    input_shape: tuple[int, int, int]  # (C, H, W)
    class_count: int
    n_genes: int

    plan: GeometryPlan = field(init=False, repr=False, compare=False)  # built from the fields above

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        self._validate()
        object.__setattr__(self, "plan", GeometryPlan(self))

    def _validate(self):
        weighted = [l for l in _specs(self.layers) if l.kind in ("conv", "fc")]
        if not weighted:
            raise InputError(f"template '{self.name}' has no conv/fc layers")
        convs = [l for l in weighted if l.kind == "conv"]
        fcs = [l for l in weighted if l.kind == "fc"]
        if not convs or not fcs:
            raise InputError(f"template '{self.name}' needs at least one conv and one fc layer")
        # Full precision exactly at the first conv and the final classifier.
        for l in weighted:
            expect_fp = l.name == convs[0].name or l.name == fcs[-1].name
            if l.binarized == expect_fp:
                raise InputError(
                    f"layer '{l.name}' of template '{self.name}' must be "
                    f"{'full-precision' if expect_fp else 'binarized'}"
                )
        seen = {}
        for l in weighted:
            if l.gene_index is not None:
                if l.gene_index in seen:
                    raise InputError(f"gene {l.gene_index} assigned to both '{seen[l.gene_index]}' and '{l.name}'")
                seen[l.gene_index] = l.name
                if l.base_out % 4 != 0:
                    raise InputError(f"gened layer '{l.name}' base width {l.base_out} is not divisible by 4")
                if l.base_out <= 0:
                    raise InputError(f"gened layer '{l.name}' base width {l.base_out} is not positive")
        if sorted(seen) != list(range(self.n_genes)):
            raise InputError(f"template '{self.name}' gene indices {sorted(seen)} != 0..{self.n_genes - 1}")

    def block_at(self, index: int) -> BlockSpec | None:
        """The top-level item at `index` if it is a block, else None."""
        return item if isinstance(item := self.layers[index], BlockSpec) else None


def _conv(name, base_out, k, stride=1, pad=None, binarized=True, gene=None) -> LayerSpec:
    if pad is None:
        pad = k // 2
    return LayerSpec(
        name=name, kind="conv", kernel=(k, k), stride=stride, pad=pad,
        base_out=base_out, binarized=binarized, gene_index=gene,
    )


def _fc(name, base_out, binarized=True, gene=None) -> LayerSpec:
    return LayerSpec(name=name, kind="fc", base_out=base_out, binarized=binarized, gene_index=gene)


def _bn(name) -> LayerSpec:
    return LayerSpec(name=name, kind="bn")


def _act(name) -> LayerSpec:
    return LayerSpec(name=name, kind="act")


def _pool(name, k, stride, pad=0) -> LayerSpec:
    return LayerSpec(name=name, kind="pool", kernel=(k, k), stride=stride, pad=pad, pool_op="max")


def _gap(name) -> LayerSpec:
    return LayerSpec(name=name, kind="pool", pool_op="global_avg")


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
    return NetworkTemplate(name="vgg_small", layers=tuple(layers), input_shape=(3, 32, 32), class_count=10, n_genes=7)


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
    return NetworkTemplate(
        name=name, layers=tuple(layers), input_shape=input_shape, class_count=class_count, n_genes=gene,
    )


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
    return NetworkTemplate(
        name="vgg_small_mini", layers=tuple(layers), input_shape=(1, 28, 28), class_count=10, n_genes=4
    )


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
