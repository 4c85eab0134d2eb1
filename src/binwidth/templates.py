"""Model-family skeletons.

A template fixes everything about a network except its per-layer channel
widths: layer kinds and order, kernel sizes, strides, padding, which
layers are binarized, and which layers carry a width gene. Output channel
counts are stated for the 1x configuration and scaled by an expansion
code at instantiation time; each layer's input width follows from the
layers before it (`space.layer_geometry`).

Gene layout convention for residual families: one gene for the stem
output, one gene per block mid-width, and one gene per stage output
width (the projection shortcut adopts it). Blocks with an identity
shortcut have their output width tied to the block input and carry no
output gene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv | fc | pool | bn | act | residual-add
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    pad: int = 0
    base_out: int = 0
    binarized: bool = False
    gene_index: int | None = None
    pool_op: str = "max"  # for kind == "pool": "max" or "global_avg"


@dataclass(frozen=True)
class BlockSpec:
    """A residual block: layers[first_layer:add_layer+1] form the main path.

    The block input is the tensor entering `first_layer`; it is added back
    at `add_layer`, through the projection pair when one is present.
    """

    name: str
    first_layer: int
    add_layer: int
    proj_conv: LayerSpec | None = None
    proj_bn: LayerSpec | None = None


@dataclass(frozen=True)
class NetworkTemplate:
    name: str
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]  # (C, H, W)
    class_count: int
    n_genes: int
    blocks: tuple[BlockSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        self._validate()
        block_of = (next((b for b in self.blocks if b.first_layer <= i <= b.add_layer), None)
                    for i in range(len(self.layers)))
        object.__setattr__(self, "_block_of", tuple(block_of))

    def _validate(self):
        weighted = [l for l in self.layers if l.kind in ("conv", "fc")]
        for b in self.blocks:
            if b.proj_conv is not None:
                weighted.append(b.proj_conv)
        if not weighted:
            raise InputError(f"template '{self.name}' has no conv/fc layers")
        convs = [l for l in self.layers if l.kind == "conv"]
        fcs = [l for l in self.layers if l.kind == "fc"]
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
        if sorted(seen) != list(range(self.n_genes)):
            raise InputError(f"template '{self.name}' gene indices {sorted(seen)} != 0..{self.n_genes - 1}")

    def block_at(self, layer_index: int) -> BlockSpec | None:
        """The block whose main path holds layer `layer_index`, if any."""
        return self._block_of[layer_index]


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


def _add(name) -> LayerSpec:
    return LayerSpec(name=name, kind="residual-add")


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
    blocks = []
    gene = 1  # gene 0 is the stem conv
    for s, width in enumerate(stage_widths, start=1):
        for b in range(1, blocks_per_stage + 1):
            downsample = s > 1 and b == 1
            stride = 2 if downsample else 1
            prefix = f"s{s}b{b}"
            first = len(layers)
            mid_gene = gene
            gene += 1
            if downsample:
                out_gene = gene
                gene += 1
            else:
                out_gene = None  # identity shortcut: output width tied to block input
            layers.extend([
                _conv(f"{prefix}_conv1", width, 3, stride=stride, gene=mid_gene),
                _bn(f"{prefix}_bn1"),
                _act(f"{prefix}_act1"),
                _conv(f"{prefix}_conv2", width, 3, gene=out_gene),
                _bn(f"{prefix}_bn2"),
                _add(f"{prefix}_add"),
            ])
            add_at = len(layers) - 1
            proj_conv = proj_bn = None
            if downsample:
                proj_conv = _conv(f"{prefix}_proj_conv", width, 1, stride=stride, pad=0)
                proj_bn = _bn(f"{prefix}_proj_bn")
            layers.append(_act(f"{prefix}_act2"))
            blocks.append(BlockSpec(name=prefix, first_layer=first, add_layer=add_at, proj_conv=proj_conv, proj_bn=proj_bn))
    layers.append(_gap("gap"))
    layers.append(_fc("fc", class_count, binarized=False))
    return NetworkTemplate(
        name=name, layers=tuple(layers), input_shape=input_shape,
        class_count=class_count, n_genes=gene, blocks=tuple(blocks),
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
