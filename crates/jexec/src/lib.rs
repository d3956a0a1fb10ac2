//! # jexec — the MiniJava execution substrate
//!
//! This crate is the reproduction's analogue of the JVM's loading,
//! verification and interpreter tiers:
//!
//! * [`Image`] — the resolved, executable form of an [`mjava::Program`]
//!   (class loading + verification);
//! * [`code`] — a stack-machine bytecode, plus [`compile_method_ast`] which
//!   lowers method ASTs to it (used both at load time and by the JIT tier
//!   after optimization);
//! * [`run`] — the profiling interpreter, whose per-method invocation and
//!   back-edge counters drive tiered compilation in `jvmsim`;
//! * [`memo`] — the process-wide execution memo, through which `jvmsim`
//!   runs each distinct (image content, limits, mode) once;
//! * [`ops`] — shared operator semantics so the optimizer's constant folder
//!   can never diverge from the interpreter.
//!
//! # Examples
//!
//! ```
//! let program = mjava::parse(r#"
//!     class T {
//!         static void main() {
//!             int s = 0;
//!             for (int i = 0; i < 10; i++) { s = s + i; }
//!             System.out.println(s);
//!         }
//!     }
//! "#).unwrap();
//! let image = jexec::Image::build(&program)?;
//! let outcome = jexec::run(&image, &jexec::ExecConfig::default());
//! assert_eq!(outcome.output, vec!["45"]);
//! assert!(outcome.is_clean());
//! # Ok::<(), jexec::BuildError>(())
//! ```

pub mod code;
pub mod compile;
pub mod error;
pub mod image;
pub mod interp;
pub mod memo;
pub mod ops;
mod profile;
mod slot;
pub mod threaded;
pub mod value;

pub use code::{ArithOp, CmpOp, Code, Instr, MethodId};
pub use compile::compile_method_ast;
pub use error::{BuildError, ExecError};
pub use image::{code_fingerprint, ClassImage, FieldLayout, Image, MethodImage};
pub use interp::{
    default_exec_mode, run_program, set_default_exec_mode, ExecConfig, ExecMode, ExecStats,
    Outcome, Profile,
};
pub use value::{ClassId, Heap, ObjId, Object, Value};

/// Executes `image` from its `main` method on the substrate selected by
/// `config.mode`. Both substrates are bit-for-bit equivalent (enforced by
/// `tests/exec_equivalence.rs`); [`ExecMode::Threaded`] is the fast path.
pub fn run(image: &Image, config: &ExecConfig) -> Outcome {
    match config.mode {
        ExecMode::Interp => interp::run(image, config),
        ExecMode::Threaded => threaded::run(image, config),
    }
}
