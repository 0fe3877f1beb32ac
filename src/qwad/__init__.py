"""qwad: differentiable bounded quantum while-programs.

Parse and print a small imperative quantum language, transform programs
into their derivatives parameter by parameter, compile the additive
results into runnable collections, evaluate read-outs and gradients
exactly or by trajectory sampling, and reproduce the control-flow
classifier training study.
"""

from .ast import (
    Abort,
    Case,
    COMP_BASIS,
    Init,
    Measurement,
    QVar,
    Register,
    Seq,
    Skip,
    Sum,
    Unitary,
    While,
    essentially_aborts,
    expand_gadget,
    expand_while,
    is_plain,
    qvar_set,
    seq_all,
)
from .autodiff import DiffResult, differentiate, judgement_holds
from .compiler import (
    CompiledMultiset,
    ResourceReport,
    compile_additive,
    fill_and_break,
    nna,
    occurrence_count,
    resource_report,
)
from .errors import NumericError, ParseError, QwadError, ValidationError
from .gates import (
    ControlledShiftRotation,
    FixedGate,
    GadgetRotation,
    LiteralGate,
    MatrixLiteral,
    Rotation,
)
from .gradient import (
    GradientReport,
    Trajectory,
    estimate_grad_sampled,
    finite_difference,
    grad_adjoint,
    grad_all,
    grad_exact,
    sample_trajectory,
)
from .linalg import (
    DensityOperator,
    Observable,
    Superoperator,
    apply_channel,
    apply_dual,
    embed,
    expectation,
    tensor,
)
from .semantics import (
    Configuration,
    FinalMultiset,
    denote,
    embed_on,
    multisets_match,
    observable_semantics,
    observable_semantics_ancilla,
    program_dual_observable,
    trace_enumerate,
)
from .syntax import SourceUnit, parse, print_program, print_source

__version__ = "0.1.0"
