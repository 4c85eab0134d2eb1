"""Desk-scale workbench for 1-bit CNNs with searched per-layer widths.

The pieces compose in this order: a template (`templates`) fixes a model
family; an expansion code (`space`) picks concrete channel widths;
`net.instantiate` builds a trainable network whose binary layers apply
the quantizers in `quant` ahead of the kernels in `ops`; `cost` prices any
(template, code) pair; `search.evolve` hunts for codes with the best
accuracy/cost trade-off; `runner`, `config`, and `cli` wrap the whole
loop into reproducible runs on disk.
"""

from .checkpoint import Checkpoint, inherit_weights, read_checkpoint, write_checkpoint
from .config import DatasetConfig, RunConfig, load_run_config
from .cost import CostReport, LayerCost, count_cost
from .data import (
    Dataset,
    make_batches,
    parse_cifar10_bin,
    parse_mnist_idx,
    stratified_split,
)
from .errors import (
    BinwidthError,
    ConfigError,
    DivergenceError,
    FormatError,
    InputError,
    ShapeError,
)
from .net import Network, instantiate
from .quant import (
    binarize_activations,
    binarize_weights,
    ste_activation_grad,
    ste_weight_grad,
)
from .search import (
    Individual,
    SearchConfig,
    SearchLogRecord,
    crossover,
    evaluate_candidate,
    evolve,
    fitness,
    make_proxy_evaluator,
    mutate,
    select_parent,
)
from .space import (
    RATIOS,
    ExpansionCode,
    layer_geometry,
    random_code,
    read_code_file,
    resolve_channels,
    uniform_code,
    validate_code,
)
from .templates import TEMPLATES, BlockSpec, LayerSpec, NetworkTemplate, get_template
from .train import (
    CIFAR_SCHEDULE,
    LrSchedule,
    TrainConfig,
    accuracy,
    lr_at_epoch,
    sgd_step,
    train_network,
)

__version__ = "0.1.0"
