#!/usr/bin/env bash
# One real imgforge build through the default runner: PUMP, then INSTALL into the
# root partition and into the /boot partition that the guest's fstab names.  It is
# the only test in which mount(8) performs imgforge's loop,offset=,sizelimit= mounts.
#
# It needs root, util-linux and e2fsprogs, and it attaches loop devices and mounts
# partitions on the host, so run it only on a disposable machine, such as a CI runner:
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
mkdir -p tree/etc
printf 'PARTUUID=deadbeef-01 /boot ext4 defaults 0 2\nPARTUUID=deadbeef-02 / ext4 defaults 0 1\n' \
    > tree/etc/fstab
mkfs.ext4 -q -F -E offset=$p1 base.img 8192k
mkfs.ext4 -q -F -E offset=$p2 -d tree base.img 56320k

echo "hello from imgforge" > motd
echo "enable_uart=1" > config.txt
cat > build.Pifile <<EOF
FROM base.img
TO out.img
PUMP 8M
INSTALL 644 motd /etc/motd
INSTALL 644 config.txt /boot/config.txt
EOF
PYTHONPATH="$repo/src" "$python" -m imgforge build.Pifile

fail() { echo "privileged build: $*" >&2; exit 1; }
[ "$(debugfs -R 'cat /etc/motd' "out.img?offset=$p2" 2>/dev/null)" = "hello from imgforge" ] \
    || fail "/etc/motd is missing from the root partition"
[ "$(debugfs -R 'cat /config.txt' "out.img?offset=$p1" 2>/dev/null)" = "enable_uart=1" ] \
    || fail "/boot/config.txt is missing from the boot partition"
e2fsck -fn "out.img?offset=$p1" || fail "e2fsck found errors on the boot partition"
e2fsck -fn "out.img?offset=$p2" || fail "e2fsck found errors on the root partition"
header=$(dumpe2fs -h "out.img?offset=$p2" 2>/dev/null)
blocks=$(sed -n 's/^Block count: *//p' <<< "$header")
block_size=$(sed -n 's/^Block size: *//p' <<< "$header")
[ $((blocks * block_size)) -eq $(((112640 + 16384) * 512)) ] \
    || fail "the root filesystem holds $blocks blocks of $block_size bytes, not the grown p2"
if losetup -a | grep -F "$work/"; then fail "a loop device is still attached to the image"; fi
if findmnt -rn -o TARGET | grep imgforge-root-; then fail "a chroot is still mounted"; fi
echo "privileged build: ok"
