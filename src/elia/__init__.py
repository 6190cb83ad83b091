"""Supply-chain E-liability knowledge graphs from alternative data sources.

Pipeline: ingest bill-of-lading records and earnings-call transcripts,
extract (buyer, supplier, item) relations with a few-shot completion
backend, canonicalize company names, build a weighted directed multigraph,
propagate inherited carbon liabilities, score extraction quality, and
export for external graph tools.
"""

from .core import (
    CompanyRef,
    EmissionFactor,
    Mention,
    Sentence,
    ShipmentRecord,
    TransactionTriple,
)
from .store import DatasetStore, load_store, new_store, save_store
from .bol import BolParseReport, normalize_product_desc, parse_bol_file
from .transcripts import (
    Gazetteer,
    detect_mentions,
    prefilter,
    segment,
)
from .extraction import (
    CompletionBackend,
    FewShotExample,
    HttpCompletionBackend,
    PromptConfig,
    RecordedBackend,
    RetryPolicy,
    RuleBasedBackend,
    build_prompt,
    extract_batch,
    format_triple_line,
    parse_triple_line,
)
from .resolution import CanonicalEntity, ResolutionResult, normalize_name, resolve
from .graph import (
    ELiabilityReport,
    FactorSampler,
    FactorTable,
    SupplyGraph,
    build_graph,
    load_factor_table,
    one_hop_inheritance,
    propagate,
    query,
)
from .evalkit import FieldMetrics, MatchOutcome, match_field, render_metrics_table, score
from .exporter import ExportOptions, export, import_graph_json

__version__ = "0.1.0"

__all__ = [
    "BolParseReport",
    "CanonicalEntity",
    "CompanyRef",
    "CompletionBackend",
    "DatasetStore",
    "ELiabilityReport",
    "EmissionFactor",
    "ExportOptions",
    "FactorSampler",
    "FactorTable",
    "FewShotExample",
    "FieldMetrics",
    "Gazetteer",
    "HttpCompletionBackend",
    "MatchOutcome",
    "Mention",
    "PromptConfig",
    "RecordedBackend",
    "ResolutionResult",
    "RetryPolicy",
    "RuleBasedBackend",
    "Sentence",
    "ShipmentRecord",
    "SupplyGraph",
    "TransactionTriple",
    "build_graph",
    "build_prompt",
    "detect_mentions",
    "export",
    "extract_batch",
    "format_triple_line",
    "import_graph_json",
    "load_factor_table",
    "load_store",
    "match_field",
    "new_store",
    "normalize_name",
    "normalize_product_desc",
    "one_hop_inheritance",
    "parse_bol_file",
    "parse_triple_line",
    "prefilter",
    "propagate",
    "query",
    "render_metrics_table",
    "resolve",
    "save_store",
    "score",
    "segment",
]
