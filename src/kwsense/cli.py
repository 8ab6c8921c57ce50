"""Command-line interface.

Subcommands:

* ``rel A B``          relatedness between words and/or senses (``sense:`` prefix)
* ``disambiguate ...`` rank the senses of each keyword against the others
* ``eval-pairs``       Spearman correlation on a word-pair TSV benchmark
* ``eval-wsd``         precision/recall/F1 over a JSONL disambiguation corpus

Exit codes: 0 success, 1 data-file errors, 2 configuration or sense-id
resolution errors, 3 relatedness undefined because of out-of-vocabulary
input. The ``KWSENSE_STOPWORDS`` environment variable may name a replacement
stopword file (one token per line).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .compiled import rel_sense_word, rel_senses
from .disambig import (
    AlgoParams,
    ContextConfig,
    DocVecStore,
    Strategy,
    build_sif_store,
    disambiguate,
    load_docvec_store,
    strategy_store,
)
from .embeddings import EmbeddingModel, VectorTable, load_binary_model, load_text_model
from .errors import ConfigError, ParseError, UnmeasurableError
from .evaluation import eval_wordpairs, eval_wsd, load_wordpair_dataset, load_wsd_corpus
from .lexicon import Lexicon, load_lexicon
from .relatedness import RelWeights, SifConfig, rel_words
from .stopwords import STOPWORDS_VERSION, default_stopwords, load_stopwords

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_OOV = 3

SENSE_PREFIX = "sense:"

STOPWORDS_ENV = "KWSENSE_STOPWORDS"


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings; construction fails before any file is loaded.

    Ranges are checked where they are defined, by ``ContextConfig``,
    ``AlgoParams`` and ``RelWeights``, and argparse ``choices`` check the
    model format, strategy and output format. ``--w0`` and ``--freq-a`` are
    the only weights set; ``w1`` and ``freq_b`` are derived from them, and
    :meth:`echo` reports all four.
    """

    model_path: Path
    model_format: str
    lexicon_path: Optional[Path]
    context: ContextConfig
    params: AlgoParams
    docvec_path: Optional[Path]
    sif_freqs_path: Optional[Path]
    output: str
    stopwords_source: str

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        if args.model is None:
            raise ConfigError("--model is required")
        model_path = Path(args.model)
        model_format = args.model_format
        if model_format is None:
            model_format = "binary" if model_path.suffix == ".bin" else "text"
        env_stopwords = os.environ.get(STOPWORDS_ENV)
        if env_stopwords:
            try:
                stopwords = load_stopwords(env_stopwords)
            except (OSError, ParseError) as exc:
                raise ConfigError(f"cannot read {STOPWORDS_ENV} file: {exc}") from None
            stopwords_source = env_stopwords
        else:
            stopwords = default_stopwords()
            stopwords_source = f"builtin:{STOPWORDS_VERSION}"
        try:
            context = ContextConfig(
                max_context=args.max_context, threshold=args.threshold, stopwords=stopwords
            )
            params = AlgoParams(
                weights=RelWeights(args.w0),
                proximity_factor=args.proximity_factor,
                freq_a=args.freq_a,
                strategy=Strategy(args.strategy),
                k=args.k,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(
            model_path=model_path,
            model_format=model_format,
            lexicon_path=Path(args.lexicon) if args.lexicon else None,
            context=context,
            params=params,
            docvec_path=Path(args.docvec) if args.docvec else None,
            sif_freqs_path=Path(args.sif_freqs) if args.sif_freqs else None,
            output=args.output,
            stopwords_source=stopwords_source,
        )

    def echo(self) -> dict:
        """The effective configuration, embedded in every report."""
        return {
            "model": str(self.model_path),
            "model_format": self.model_format,
            "lexicon": str(self.lexicon_path) if self.lexicon_path else None,
            "strategy": self.params.strategy.value,
            "k": self.params.k,
            "threshold": self.context.threshold,
            "max_context": self.context.max_context,
            "w0": self.params.weights.w0,
            "w1": self.params.weights.w1,
            "proximity_factor": self.params.proximity_factor,
            "freq_a": self.params.freq_a,
            "freq_b": self.params.freq_b,
            "docvec": str(self.docvec_path) if self.docvec_path else None,
            "sif_freqs": str(self.sif_freqs_path) if self.sif_freqs_path else None,
            "stopwords": self.stopwords_source,
        }


def _load_model(cfg: RunConfig) -> EmbeddingModel:
    if cfg.model_format == "binary":
        return load_binary_model(cfg.model_path)
    return load_text_model(cfg.model_path)


def _load_lexicon(cfg: RunConfig) -> Lexicon:
    if cfg.lexicon_path is None:
        raise ConfigError("this command requires --lexicon")
    return load_lexicon(cfg.lexicon_path)


def _build_stores(cfg: RunConfig, model: EmbeddingModel, lexicon: Lexicon):
    sif_store: Optional[VectorTable] = None
    docvec_store: Optional[DocVecStore] = None
    if cfg.params.strategy is Strategy.SIF:
        sif_store = build_sif_store(
            model, lexicon, SifConfig(word_freq_source=cfg.sif_freqs_path)
        )
    if cfg.params.strategy is Strategy.DOC_VEC:
        if cfg.docvec_path is None:
            raise ConfigError("strategy 'docvec' requires --docvec")
        docvec_store = load_docvec_store(cfg.docvec_path)
    strategy_store(model, cfg.params.strategy, sif_store, docvec_store)
    return sif_store, docvec_store


def _echo_header(cfg: RunConfig) -> str:
    parts = [f"{key}={value}" for key, value in cfg.echo().items() if value is not None]
    return "# " + " ".join(parts)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _is_sense_arg(arg: str) -> bool:
    return arg.startswith(SENSE_PREFIX)


def _cmd_rel(cfg: RunConfig, args: argparse.Namespace) -> int:
    a_sense = _is_sense_arg(args.a)
    b_sense = _is_sense_arg(args.b)
    lexicon: Optional[Lexicon] = None
    if a_sense or b_sense:
        lexicon = _load_lexicon(cfg)
    model = _load_model(cfg)
    weights = cfg.params.weights

    def resolve(arg: str):
        assert lexicon is not None
        try:
            return lexicon.resolve(arg[len(SENSE_PREFIX) :])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    sense_a = resolve(args.a) if a_sense else None
    sense_b = resolve(args.b) if b_sense else None
    try:
        if a_sense and b_sense:
            score = rel_senses(model, lexicon, sense_a, sense_b, weights)
            kind = "sense-sense"
        elif a_sense or b_sense:
            sense = sense_a if a_sense else sense_b
            word = args.b if a_sense else args.a
            score = rel_sense_word(model, lexicon, sense, word, weights)
            kind = "sense-word"
        else:
            maybe = rel_words(model, args.a, args.b)
            if maybe is None:
                print(f"relatedness undefined: {args.a!r} or {args.b!r} out of vocabulary",
                      file=sys.stderr)
                return EXIT_OOV
            score = maybe
            kind = "word-word"
    except UnmeasurableError as exc:
        print(f"relatedness undefined: {exc}", file=sys.stderr)
        return EXIT_OOV
    if cfg.output == "json":
        _print_json({"a": args.a, "b": args.b, "kind": kind, "relatedness": score,
                     "config": cfg.echo()})
    else:
        print(f"{score:.6f}")
    return EXIT_OK


def _cmd_disambiguate(cfg: RunConfig, args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(cfg)
    model = _load_model(cfg)
    sif_store, docvec_store = _build_stores(cfg, model, lexicon)
    results = []
    for i, keyword in enumerate(args.keywords):
        context = [w for j, w in enumerate(args.keywords) if j != i]
        if not lexicon.senses_of(keyword):
            results.append({"keyword": keyword, "senses": None})
            continue
        result = disambiguate(
            model, lexicon, keyword, context, cfg.context, cfg.params, sif_store, docvec_store
        )
        results.append(result.to_dict())
    if cfg.output == "json":
        _print_json({"config": cfg.echo(), "results": results})
        return EXIT_OK
    print(_echo_header(cfg))
    for res in results:
        if res.get("senses") is None:
            print(f"{res['keyword']}: no senses")
            continue
        context = ", ".join(f"{m['word']} ({m['relatedness']:.4f})"
                            for m in res["active_context"])
        print(f"{res['keyword']}: active context [{context}]")
        for rank, sense in enumerate(res["senses"], start=1):
            trace = sense["trace"]
            print(
                f"  {rank}. {sense['id']:<30} {sense['score']:.6f} "
                f"(base {trace['step1']:.6f}, +{trace['step2_delta']:.6f}, "
                f"+{trace['step3_delta']:.6f})"
            )
    return EXIT_OK


def _cmd_eval_pairs(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset = load_wordpair_dataset(args.dataset)
    model = _load_model(cfg)
    try:
        result = eval_wordpairs(model, dataset)
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if cfg.output == "json":
        _print_json({"config": cfg.echo(), "dataset": dataset.name, **result.to_dict()})
    else:
        print(_echo_header(cfg))
        print(f"dataset   {dataset.name}")
        print(f"pairs     {len(dataset.pairs)}")
        print(f"covered   {result.covered}")
        print(f"skipped   {result.skipped}")
        print(f"rho       {result.rho:.6f}")
    return EXIT_OK


def _cmd_eval_wsd(cfg: RunConfig, args: argparse.Namespace) -> int:
    lexicon = _load_lexicon(cfg)
    corpus = load_wsd_corpus(args.corpus)
    model = _load_model(cfg)
    sif_store, docvec_store = _build_stores(cfg, model, lexicon)
    report = eval_wsd(
        model,
        lexicon,
        corpus,
        cfg.context,
        cfg.params,
        sif_store,
        docvec_store,
    )
    if cfg.output == "json":
        _print_json({"config": cfg.echo(), "corpus": corpus.name,
                     **report.to_dict(include_records=True)})
    else:
        print(_echo_header(cfg))
        print(f"{'corpus':<12}{corpus.name}")
        print(f"{'total':<12}{report.total}")
        print(f"{'attempted':<12}{report.attempted}")
        print(f"{'correct':<12}{report.correct}")
        print(f"{'precision':<12}{report.precision:.6f}")
        print(f"{'recall':<12}{report.recall:.6f}")
        print(f"{'f1':<12}{report.f1:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="embedding model file")
    common.add_argument("--model-format", choices=["text", "binary"], default=None,
                        help="model file format (default: by extension, .bin = binary)")
    common.add_argument("--lexicon", help="sense inventory JSONL file")
    common.add_argument("--strategy", default=Strategy.TOP_K.value,
                        choices=[s.value for s in Strategy],
                        help="step-2 rescoring strategy (default: topk)")
    common.add_argument("--k", type=int, default=15, help="top-k size (default: 15)")
    common.add_argument("--threshold", type=float, default=0.5,
                        help="active-context relatedness threshold (default: 0.5)")
    common.add_argument("--max-context", type=int, default=4,
                        help="active-context size cap (default: 4)")
    common.add_argument("--w0", type=float, default=0.5,
                        help="weight of level-0 relatedness; level 1 gets 1-w0 (default: 0.5)")
    common.add_argument("--proximity-factor", type=float, default=0.75,
                        help="step-3 proximity gate (default: 0.75)")
    common.add_argument("--freq-a", type=float, default=0.5,
                        help="frequency damping numerator weight; b = 1-a (default: 0.5)")
    common.add_argument("--docvec", help="document-vector JSONL store (docvec strategy)")
    common.add_argument("--sif-freqs", help="token-frequency table for description embeddings")
    common.add_argument("--output", choices=["table", "json"], default="table",
                        help="report format (default: table)")

    parser = argparse.ArgumentParser(
        prog="kwsense",
        description="Keyword disambiguation with embedding-based semantic relatedness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rel = sub.add_parser("rel", parents=[common],
                           help="relatedness between two words/senses")
    p_rel.add_argument("a", help="word, phrase, or sense:<id>")
    p_rel.add_argument("b", help="word, phrase, or sense:<id>")
    p_rel.set_defaults(func=_cmd_rel)

    p_dis = sub.add_parser("disambiguate", parents=[common],
                           help="rank senses of each keyword against the other keywords")
    p_dis.add_argument("keywords", nargs="+", help="keywords; each is disambiguated "
                       "against the remaining ones")
    p_dis.set_defaults(func=_cmd_disambiguate)

    p_pairs = sub.add_parser("eval-pairs", parents=[common],
                             help="word-pair correlation benchmark (TSV)")
    p_pairs.add_argument("dataset", help="TSV file: word1<TAB>word2<TAB>score")
    p_pairs.set_defaults(func=_cmd_eval_pairs)

    p_wsd = sub.add_parser("eval-wsd", parents=[common],
                           help="disambiguation benchmark (JSONL corpus)")
    p_wsd.add_argument("corpus", help="JSONL corpus file")
    p_wsd.set_defaults(func=_cmd_eval_wsd)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
