#!/usr/bin/env bash
# Three real imgforge builds through the default runner.  The first does PUMP, INSTALL
# into the root partition and into the /boot partition that the guest's fstab names,
# copies an emulator in, and enters the guest with RUN: a here-document, and a script
# that INSTALL put under /opt/bin and PATH makes callable.  The second fails at a
# `RUN false` and must exit 2 with everything torn down.  The third is sent SIGTERM
# while its RUN loops in the guest, and must exit 2 with everything torn down and that
# RUN's shell no longer running.  It is the only test in which mount(8) performs
# imgforge's loop,offset=,sizelimit= mounts and chroot(8) enters the guest.
#
# It needs root, util-linux, e2fsprogs and dash, and it attaches loop devices and
# mounts partitions on the host, so run it only on a disposable machine, such as a CI
# runner:
#
#     sudo env "PYTHON=$(command -v python3)" bash tests/privileged-build.sh
set -euo pipefail

python=${PYTHON:-python3}
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
cd "$work"

# the test oracle's image: 64 MiB, p1 at sector 2048 (16384 sectors), p2 at 18432
# (112640 sectors, up to the end); ext4 on both, and p2's fstab names p1 as /boot
"$python" - <<EOF
import sys
sys.path.insert(0, "$repo/tests")
import mbr_oracle
mbr_oracle.write_image("base.img")
EOF
p1=$((2048 * 512))
p2=$((18432 * 512))
mkdir -p tree/etc tree/bin
printf 'PARTUUID=deadbeef-01 /boot ext4 defaults 0 2\nPARTUUID=deadbeef-02 / ext4 defaults 0 1\n' \
    > tree/etc/fstab
# a native root for RUN: the host's dash as /bin/sh, and the libc and loader that ldd
# names; it holds no other program, so the guest commands use only dash builtins
cp "$(command -v dash)" tree/bin/dash
ln -s dash tree/bin/sh
for lib in $(ldd tree/bin/dash | grep -o '/[^ ]*'); do
    mkdir -p "tree$(dirname "$lib")"
    cp -L "$lib" "tree$lib"
done
mkfs.ext4 -q -F -E offset=$p1 base.img 8192k
mkfs.ext4 -q -F -E offset=$p2 -d tree base.img 56320k

echo "hello from imgforge" > motd
echo "enable_uart=1" > config.txt
printf '#!/bin/sh\necho run through PATH > /etc/from-path\n' > hello
echo "not a real emulator" > qemu-stub-static
cat > build.Pifile <<EOF
FROM base.img
TO out.img
PUMP 8M
INSTALL 644 motd /etc/motd
INSTALL 644 config.txt /boot/config.txt
RUN sh << BODY
echo written by a here-document > /etc/greeting
BODY
INSTALL 755 hello /opt/bin/hello
PATH /opt/bin
RUN hello
EOF
PYTHONPATH="$repo/src" "$python" -m imgforge --emulator "$work/qemu-stub-static" build.Pifile

fail() { echo "privileged build: $*" >&2; exit 1; }
# after each build: no chroot mounted, no loop device on an image here, no chroot directory
torn_down() {
    if findmnt -rn -o TARGET | grep imgforge-root-; then fail "$1: a chroot is still mounted"; fi
    if losetup -a | grep -F "$work/"; then fail "$1: a loop device is still attached"; fi
    if compgen -G "${TMPDIR:-/tmp}/imgforge-root-*"; then fail "$1: a chroot directory is left"; fi
}
torn_down "the build"
root_file() { debugfs -R "cat $1" "out.img?offset=$p2" 2>/dev/null; }
[ "$(root_file /etc/motd)" = "hello from imgforge" ] \
    || fail "/etc/motd is missing from the root partition"
[ "$(debugfs -R 'cat /config.txt' "out.img?offset=$p1" 2>/dev/null)" = "enable_uart=1" ] \
    || fail "/boot/config.txt is missing from the boot partition"
[ "$(root_file /etc/greeting)" = "written by a here-document" ] \
    || fail "the RUN here-document did not write /etc/greeting"
[ "$(root_file /etc/from-path)" = "run through PATH" ] \
    || fail "RUN hello did not find the installed /opt/bin/hello through PATH"
stub=$(debugfs -R "stat /usr/bin/qemu-stub-static" "out.img?offset=$p2" 2>&1)
grep -q "File not found by ext2_lookup" <<< "$stub" || fail "the emulator copy was not removed"
e2fsck -fn "out.img?offset=$p1" || fail "e2fsck found errors on the boot partition"
e2fsck -fn "out.img?offset=$p2" || fail "e2fsck found errors on the root partition"
header=$(dumpe2fs -h "out.img?offset=$p2" 2>/dev/null)
blocks=$(sed -n 's/^Block count: *//p' <<< "$header")
block_size=$(sed -n 's/^Block size: *//p' <<< "$header")
[ $((blocks * block_size)) -eq $(((112640 + 16384) * 512)) ] \
    || fail "the root filesystem holds $blocks blocks of $block_size bytes, not the grown p2"

cat > false.Pifile <<EOF
FROM base.img
TO false.img
INSTALL 644 motd /etc/motd
RUN false
EOF
status=0
PYTHONPATH="$repo/src" "$python" -m imgforge --emulator "$work/qemu-stub-static" false.Pifile \
    || status=$?
[ "$status" -eq 2 ] || fail "a build whose RUN fails exited $status, not 2"
torn_down "the failed build"

# the RUN writes its shell's pid to /started, then loops on dash builtins
cat > term.Pifile <<'EOF'
FROM base.img
TO term.img
RUN echo $$ > /started; while :; do :; done
EOF
PYTHONPATH="$repo/src" "$python" -m imgforge --emulator "$work/qemu-stub-static" term.Pifile \
    2> term.err &
build=$!
started=
for _ in $(seq 600); do
    started=$(compgen -G "${TMPDIR:-/tmp}/imgforge-root-*/started" || true)
    if [ -n "$started" ] && [ -s "$started" ]; then break; fi
    kill -0 "$build" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$started" ] || [ ! -s "$started" ]; then
    kill -KILL "$build" 2>/dev/null || true
    cat term.err >&2
    fail "the RUN of the interrupted build never wrote /started"
fi
guest=$(cat "$started")
kill -TERM "$build"
status=0
wait "$build" || status=$?
cat term.err >&2
[ "$status" -eq 2 ] || fail "a build sent SIGTERM exited $status, not 2"
[ "$(tail -n 1 term.err)" = "[chroot] interrupted by SIGTERM" ] \
    || fail "a build sent SIGTERM did not end with [chroot] interrupted by SIGTERM"
torn_down "the interrupted build"
if kill -0 "$guest" 2>/dev/null; then fail "the RUN's shell $guest is still running"; fi
echo "privileged build: ok"
