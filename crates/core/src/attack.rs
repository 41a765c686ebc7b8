//! Attack simulations for the §7 security analysis.
//!
//! Each function reproduces one of the paper's threat scenarios so the
//! security integration tests (and the `attacks` example) can demonstrate
//! both the attack *and* the defense.

use sb_microkernel::{layout, Kernel, ProcessId, ThreadId};
use sb_rewriter::scan::find_occurrences;
use sb_rootkernel::VmfuncError;

use crate::api::SkyBridge;

/// Outcome of an attempted attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack path no longer exists (e.g. the VMFUNC bytes were
    /// scrubbed from the attacker's code).
    Neutralized {
        /// Evidence, e.g. occurrences found in the attacker's image.
        occurrences_left: usize,
    },
    /// The attack was attempted and the hardware/Rootkernel faulted it.
    Faulted(VmfuncError),
    /// The attack *succeeded* (expected only when defenses are disabled —
    /// used to demonstrate why each defense is necessary).
    Succeeded,
}

/// Reads a process's code image back out of simulated memory.
pub fn dump_code(k: &Kernel, pid: ProcessId) -> Vec<u8> {
    let len = k.processes[pid].code_len;
    let asp = k.processes[pid].asp;
    let mut out = vec![0u8; len];
    let mut off = 0;
    while off < len {
        let at = layout::CODE_BASE.add(off as u64);
        let n = ((sb_mem::PAGE_SIZE - at.page_offset()) as usize).min(len - off);
        let (gpa, _) = asp.translate_setup(&k.mem, at).unwrap();
        k.mem.read_slice(sb_mem::Hpa(gpa.0), &mut out[off..off + n]);
        off += n;
    }
    out
}

/// The self-prepared `VMFUNC` attack (§4.4): a malicious process carries
/// its own `0F 01 D4` outside the trampoline and executes it to land in a
/// victim's address space at an attacker-chosen RIP.
///
/// After SkyBridge registration the attack is dead: the registration-time
/// rewrite removed every occurrence from the attacker's image. This
/// function scans the process's *current in-memory code* and, if any
/// occurrence survives, simulates executing it.
pub fn self_prepared_vmfunc(
    sb: &mut SkyBridge,
    k: &mut Kernel,
    attacker: ThreadId,
    eptp_index: usize,
) -> AttackOutcome {
    let pid = k.threads[attacker].process;
    let code = dump_code(k, pid);
    let occurrences = find_occurrences(&code);
    if occurrences.is_empty() {
        return AttackOutcome::Neutralized {
            occurrences_left: 0,
        };
    }
    // The bytes exist: the process executes them (no trampoline, no key
    // protocol). Whether this "works" is up to the Rootkernel state.
    raw_vmfunc(sb, k, attacker, eptp_index)
}

/// Executes a raw `VMFUNC(0, index)` outside the trampoline on the
/// attacker's core — the primitive behind both the self-prepared-VMFUNC
/// attack and the illegal-server-call attack.
pub fn raw_vmfunc(
    _sb: &mut SkyBridge,
    k: &mut Kernel,
    attacker: ThreadId,
    eptp_index: usize,
) -> AttackOutcome {
    let core = k.threads[attacker].core;
    let Some(rk) = k.rootkernel.as_mut() else {
        return AttackOutcome::Faulted(VmfuncError::NotInNonRootMode);
    };
    match rk.vmfunc(&mut k.machine, core, 0, eptp_index) {
        Ok(()) => AttackOutcome::Succeeded,
        Err(e) => AttackOutcome::Faulted(e),
    }
}

/// Restores the attacker's own EPT after a demonstration (so later
/// operations see a consistent machine).
pub fn restore_own_ept(k: &mut Kernel, attacker: ThreadId) {
    let core = k.threads[attacker].core;
    if let Some(rk) = k.rootkernel.as_mut() {
        let _ = rk.vmfunc(&mut k.machine, core, 0, 0);
    }
}

/// The illegal-server-call attack (§4.4): a client that *is* bound to some
/// server tries to call a *different* server it never registered with, by
/// presenting a forged calling key. [`SkyBridge::direct_server_call`]
/// refuses at binding lookup; this helper additionally demonstrates the
/// key check by injecting a corrupted key through a bound connection.
pub fn forged_key_call(
    sb: &mut SkyBridge,
    k: &mut Kernel,
    client: ThreadId,
    server: crate::registry::ServerId,
) -> AttackOutcome {
    let pid = k.threads[client].process;
    // Corrupt the stored binding key (attacker guesses wrong).
    let Some(b) = sb.binding(pid, server) else {
        return AttackOutcome::Neutralized {
            occurrences_left: 0,
        };
    };
    let real = b.server_key;
    sb.corrupt_binding_key(pid, server, real ^ 0xdead_beef);
    let result = sb.direct_server_call(k, client, server, b"attack");
    sb.corrupt_binding_key(pid, server, real);
    match result {
        Err(crate::error::SbError::BadServerKey) => AttackOutcome::Neutralized {
            occurrences_left: 0,
        },
        Ok(_) => AttackOutcome::Succeeded,
        Err(e) => panic!("unexpected error during forged-key call: {e}"),
    }
}

/// The forged-return attack (§4.4): a malicious server hands control
/// back with a client key it was never given. The client's return
/// trampoline rechecks the per-call key and refuses the reply.
pub fn forged_echo_call(
    sb: &mut SkyBridge,
    k: &mut Kernel,
    client: ThreadId,
    server: crate::registry::ServerId,
) -> AttackOutcome {
    sb.corrupt_echo_key(server, 0xdead_beef);
    let result = sb.direct_server_call(k, client, server, b"attack");
    sb.corrupt_echo_key(server, 0);
    match result {
        Err(crate::error::SbError::BadClientKey) => AttackOutcome::Neutralized {
            occurrences_left: 0,
        },
        Ok(_) => AttackOutcome::Succeeded,
        Err(e) => panic!("unexpected error during forged-echo call: {e}"),
    }
}
