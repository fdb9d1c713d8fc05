"""Closed-form parameter/MAC/FLOP accounting for any model config.

Counting conventions:
  * MACs count conv/dense multiply-accumulates only; biases, batch norm,
    GELU, pooling and softmax are excluded. Same-padding taps that read
    zeros are counted (the sliding-window kernels compute them).
  * FLOPs = 2*MACs + one add per conv/dense output element for the bias
    (the convention string travels with every report).
  * Parameter totals include BN running statistics; a trainable-only
    view subtracts the two running vectors per block.
"""

from dataclasses import dataclass

from .model import ModelConfig

FLOP_CONVENTION = "flops = 2*macs + bias adds (one per conv/dense output element)"

# totals published for the original SceneMixer implementation (64x64x3
# input, 10 classes); our parameter accounting differs, see README
EUROSAT_REFERENCE = {"params": 100_117, "flops": 45_913_344, "macs": 22_807_808}


@dataclass
class LayerCost:
    name: str
    params: int
    macs: int
    flops: int


@dataclass
class CostReport:
    entries: list
    total_params: int
    total_macs: int
    total_flops: int
    flop_convention: str


def _layer_costs(config: ModelConfig, trainable_only: bool) -> list:
    config.validate()
    p, d, c_in, c_out = config.patch, config.embed_dim, config.input_c, config.num_classes
    g2 = config.tokens
    entries = []

    def conv(name, params, macs, out_elems):
        entries.append(LayerCost(name, params, macs, 2 * macs + out_elems))

    conv("patch_embed", p * p * c_in * d + d, g2 * d * (p * p * c_in), g2 * d)
    for i in range(config.depth):
        for k in config.kernels:
            conv(f"block{i}.dw{k}x{k}", k * k * d + d, g2 * d * k * k, g2 * d)
        conv(f"block{i}.pw", d * d + d, g2 * d * d, g2 * d)
        bn_params = 2 * d if trainable_only else 4 * d
        entries.append(LayerCost(f"block{i}.bn", bn_params, 0, 0))
    conv("head", d * c_out + c_out, d * c_out, c_out)
    return entries


def cost_report(config: ModelConfig, trainable_only: bool = False) -> CostReport:
    entries = _layer_costs(config, trainable_only)
    return CostReport(
        entries=entries,
        total_params=sum(e.params for e in entries),
        total_macs=sum(e.macs for e in entries),
        total_flops=sum(e.flops for e in entries),
        flop_convention=FLOP_CONVENTION,
    )


def format_report(report: CostReport, config: ModelConfig | None = None) -> str:
    name_w = max(len(e.name) for e in report.entries + [LayerCost("total", 0, 0, 0)])
    lines = [f"{'layer':<{name_w}}  {'params':>12}  {'macs':>14}  {'flops':>14}"]
    for e in report.entries:
        lines.append(f"{e.name:<{name_w}}  {e.params:>12,}  {e.macs:>14,}  {e.flops:>14,}")
    lines.append(
        f"{'total':<{name_w}}  {report.total_params:>12,}  {report.total_macs:>14,}  {report.total_flops:>14,}"
    )
    lines.append(f"convention: {report.flop_convention}")
    if config == ModelConfig.eurosat_default():
        ref = EUROSAT_REFERENCE
        lines.append(
            "reference totals for the original SceneMixer implementation: "
            f"params {ref['params']:,}, flops {ref['flops']:,}, macs {ref['macs']:,}"
        )
        lines.append(
            f"note: MAC total matches the reference exactly; the parameter total "
            f"differs ({report.total_params:,} here vs {ref['params']:,} reference) "
            "and no configuration consistent with the exact MAC count closes the gap"
        )
    return "\n".join(lines) + "\n"


def report_to_csv(report: CostReport) -> str:
    lines = ["layer,params,macs,flops"]
    for e in report.entries:
        lines.append(f"{e.name},{e.params},{e.macs},{e.flops}")
    lines.append(f"total,{report.total_params},{report.total_macs},{report.total_flops}")
    return "\n".join(lines) + "\n"
