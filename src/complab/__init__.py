"""complab: a code-completion modeling laboratory.

Trains n-gram and decoder-only transformer language models on code corpora
(committed-like files, logged completion acceptances, edit snapshots),
evaluates them offline with top-1 accuracy and MRR@10, ranks completion
candidates behind a line-oriented service with a threshold/promotion rule,
and quantifies corpus drift and A/B outcomes.

Every exported name is used by a command or by the benchmark. The gradient
check and the other test oracles live with the tests.
"""

from .lexer import LexError, Token, TokenKind, is_identifier_like, tokenize
from .vocab import Vocabulary, build_vocab, encode
from .corpus import (
    CompletionEvent,
    EvalExample,
    FileRecord,
    events_to_examples,
    sample_identifier_targets,
    split,
)
from .completer import Completer
from .datagen import DomainProfile, default_profiles, generate
from .ngram import NgramCompleter, NgramModel, ngram_prob, ngram_topk, train_ngram
from .transformer import (
    TransformerConfig,
    TrainLog,
    forward,
    loss,
    train,
)
from .evalsuite import EvalReport, evaluate
from .ranker import RankResponse, rank
from .abtest import AbObservation, AbReport, aggregate, assign_group, compare

__version__ = "0.1.0"
